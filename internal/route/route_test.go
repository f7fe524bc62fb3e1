package route

import (
	"math"
	"testing"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// testGraph is a minimal route.Graph for handcrafted topologies.
type testGraph struct {
	adj     [][]int32
	weights []float64
}

func newTestGraph(n int, edges [][2]int) *testGraph {
	g := &testGraph{adj: make([][]int32, n), weights: make([]float64, n)}
	for i := range g.weights {
		g.weights[i] = 1
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], int32(e[1]))
		g.adj[e[1]] = append(g.adj[e[1]], int32(e[0]))
	}
	return g
}

func (g *testGraph) N() int                  { return len(g.adj) }
func (g *testGraph) Neighbors(v int) []int32 { return g.adj[v] }
func (g *testGraph) Weight(v int) float64    { return g.weights[v] }

// scoreObjective builds an Objective from a fixed score table with target t.
func scoreObjective(scores []float64, t int) Objective {
	return Objective{Target: t, Score: func(v int) float64 {
		if v == t {
			return math.Inf(1)
		}
		return scores[v]
	}}
}

// checkPathValid verifies every consecutive pair on the path is an edge.
func checkPathValid(t *testing.T, g Graph, res Result) {
	t.Helper()
	for i := 1; i < len(res.Path); i++ {
		a, b := res.Path[i-1], res.Path[i]
		found := false
		for _, u := range g.Neighbors(a) {
			if int(u) == b {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path step %d: %d -> %d is not an edge (path %v)", i, a, b, res.Path)
		}
	}
	if res.Moves != len(res.Path)-1 {
		t.Fatalf("Moves = %d, path length %d", res.Moves, len(res.Path))
	}
}

func TestGreedySuccessOnChain(t *testing.T) {
	// 0 - 1 - 2 - 3 with increasing scores.
	g := newTestGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	obj := scoreObjective([]float64{1, 2, 3, 0}, 3)
	res := Greedy(g, obj, 0)
	if !res.Success {
		t.Fatalf("greedy failed: %+v", res)
	}
	want := []int{0, 1, 2, 3}
	if len(res.Path) != 4 {
		t.Fatalf("path %v", res.Path)
	}
	for i := range want {
		if res.Path[i] != want[i] {
			t.Fatalf("path %v, want %v", res.Path, want)
		}
	}
	if res.Moves != 3 || res.Unique != 4 || res.Stuck != -1 {
		t.Fatalf("result %+v", res)
	}
	checkPathValid(t, g, res)
}

func TestGreedyDeadEnd(t *testing.T) {
	// 0 - 1 - 2, target 3 connected only to 2, but 1's best neighbor is 0
	// (a local optimum at 1).
	g := newTestGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	obj := scoreObjective([]float64{5, 4, 3, 0}, 3)
	res := Greedy(g, obj, 1)
	if res.Success {
		t.Fatal("greedy should fail from local optimum")
	}
	if res.Stuck != 1 && res.Stuck != 0 {
		t.Fatalf("stuck at %d", res.Stuck)
	}
}

func TestGreedyStartAtTarget(t *testing.T) {
	g := newTestGraph(2, [][2]int{{0, 1}})
	obj := scoreObjective([]float64{1, 0}, 0)
	res := Greedy(g, obj, 0)
	if !res.Success || res.Moves != 0 || res.Unique != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestGreedyDirectNeighborOfTarget(t *testing.T) {
	// If {s, t} is an edge, the algorithm sends directly to t (the target
	// maximizes every objective).
	g := newTestGraph(3, [][2]int{{0, 1}, {0, 2}})
	obj := scoreObjective([]float64{1, 100, 0}, 2)
	res := Greedy(g, obj, 0)
	if !res.Success || res.Moves != 1 || res.Path[1] != 2 {
		t.Fatalf("%+v", res)
	}
}

func TestGreedyIsolatedSource(t *testing.T) {
	g := newTestGraph(2, nil)
	obj := scoreObjective([]float64{1, 0}, 1)
	res := Greedy(g, obj, 0)
	if res.Success || res.Stuck != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestGreedyMonotoneObjective(t *testing.T) {
	// On random graphs the greedy path must have strictly increasing
	// scores.
	rng := xrand.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.IntN(30)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(0.2) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := newTestGraph(n, edges)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		tgt := rng.IntN(n)
		obj := scoreObjective(scores, tgt)
		res := Greedy(g, obj, rng.IntN(n))
		checkPathValid(t, g, res)
		for i := 1; i < len(res.Path); i++ {
			if obj.Score(res.Path[i]) <= obj.Score(res.Path[i-1]) {
				t.Fatalf("objective not increasing along greedy path")
			}
		}
	}
}

// randomConnectedCase builds a random graph and returns it with random
// scores and an (s, t) pair guaranteed to be in the same component.
func randomConnectedCase(rng *xrand.RNG) (*testGraph, Objective, int) {
	n := 10 + rng.IntN(40)
	var edges [][2]int
	// A random tree keeps everything connected, plus random extra edges.
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.IntN(v), v})
	}
	extra := rng.IntN(2 * n)
	for i := 0; i < extra; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	g := newTestGraph(n, edges)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	tgt := rng.IntN(n)
	return g, scoreObjective(scores, tgt), tgt
}

func TestPhiDFSAlwaysSucceedsConnected(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := PhiDFS{}.Route(g, obj, s)
		if !res.Success {
			t.Fatalf("trial %d: PhiDFS failed on connected graph: %+v", trial, res)
		}
		checkPathValid(t, g, res)
	}
}

func TestHistoryPatchAlwaysSucceedsConnected(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := HistoryPatch{}.Route(g, obj, s)
		if !res.Success {
			t.Fatalf("trial %d: HistoryPatch failed on connected graph: %+v", trial, res)
		}
		checkPathValid(t, g, res)
	}
}

func TestGravityPressureSucceedsConnected(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 100; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := GravityPressure{}.Route(g, obj, s)
		if !res.Success {
			t.Fatalf("trial %d: gravity-pressure failed: %+v", trial, res)
		}
		checkPathValid(t, g, res)
	}
}

func TestPatchersFailCleanlyWhenDisconnected(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; target in the other component.
	g := newTestGraph(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	obj := scoreObjective([]float64{1, 2, 3, 4, 0}, 4)
	for name, route := range map[string]func() Result{
		"phidfs":  func() Result { return PhiDFS{}.Route(g, obj, 0) },
		"history": func() Result { return HistoryPatch{}.Route(g, obj, 0) },
	} {
		res := route()
		if res.Success {
			t.Errorf("%s succeeded across components", name)
		}
		if res.Truncated {
			t.Errorf("%s hit the move cap instead of detecting exhaustion", name)
		}
		if res.Stuck < 0 || res.Stuck > 2 {
			t.Errorf("%s stuck marker %d outside source component", name, res.Stuck)
		}
	}
}

func TestPhiDFSIsolatedSource(t *testing.T) {
	g := newTestGraph(2, nil)
	obj := scoreObjective([]float64{1, 0}, 1)
	res := PhiDFS{}.Route(g, obj, 0)
	if res.Success || res.Truncated {
		t.Fatalf("%+v", res)
	}
}

func TestPhiDFSStartAtTarget(t *testing.T) {
	g := newTestGraph(2, [][2]int{{0, 1}})
	obj := scoreObjective([]float64{1, 0}, 0)
	res := PhiDFS{}.Route(g, obj, 0)
	if !res.Success || res.Moves != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestPhiDFSGreedyChoicesP1(t *testing.T) {
	// Property (P1): whenever the message visits a vertex for the first
	// time and the vertex has a neighbor of larger objective, the next
	// vertex on the path is the best neighbor.
	rng := xrand.New(17)
	for trial := 0; trial < 100; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := PhiDFS{}.Route(g, obj, s)
		seen := map[int]bool{}
		for i, v := range res.Path {
			first := !seen[v]
			seen[v] = true
			if !first || i == len(res.Path)-1 {
				continue
			}
			u := bestNeighborIface(g, obj, v)
			if u >= 0 && better(obj.Score(u), obj.Score(v), u, v) {
				if res.Path[i+1] != u {
					t.Fatalf("trial %d: (P1) violated at step %d: fresh vertex %d has best neighbor %d but moved to %d",
						trial, i, v, u, res.Path[i+1])
				}
			}
		}
	}
}

func TestHistoryPatchGreedyChoicesP1(t *testing.T) {
	rng := xrand.New(19)
	for trial := 0; trial < 100; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := HistoryPatch{}.Route(g, obj, s)
		seen := map[int]bool{}
		for i, v := range res.Path {
			first := !seen[v]
			seen[v] = true
			if !first || i == len(res.Path)-1 {
				continue
			}
			u := bestNeighborIface(g, obj, v)
			if u >= 0 && better(obj.Score(u), obj.Score(v), u, v) {
				if res.Path[i+1] != u {
					t.Fatalf("trial %d: (P1) violated at fresh vertex %d", trial, v)
				}
			}
		}
	}
}

func TestPhiDFSExhaustiveSearchP3(t *testing.T) {
	// Property (P3)-flavored check: on success or exhaustion, the number of
	// moves stays polynomial in the number of unique vertices (we use a
	// generous cubic bound from the paper's own analysis of Algorithm 2).
	rng := xrand.New(23)
	for trial := 0; trial < 100; trial++ {
		g, obj, _ := randomConnectedCase(rng)
		s := rng.IntN(g.N())
		res := PhiDFS{}.Route(g, obj, s)
		bound := 10 * res.Unique * res.Unique * res.Unique
		if res.Moves > bound {
			t.Fatalf("trial %d: %d moves for %d unique vertices", trial, res.Moves, res.Unique)
		}
	}
}

func TestPhiDFSMoveCap(t *testing.T) {
	g, obj, _ := randomConnectedCase(xrand.New(29))
	res := PhiDFS{MaxMoves: 1}.Route(g, obj, 0)
	if !res.Success && !res.Truncated && res.Stuck < 0 {
		t.Fatalf("capped run neither succeeded nor reported: %+v", res)
	}
	if res.Moves > 2 {
		t.Fatalf("cap not enforced: %d moves", res.Moves)
	}
}

// --- Objectives on real GIRG graphs ---

func girgForRouting(t testing.TB, n float64, seed uint64) *graph.Graph {
	t.Helper()
	p := girg.DefaultParams(n)
	p.FixedN = true
	g, err := girg.Generate(p, seed, girg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStandardObjectiveFormula(t *testing.T) {
	g := girgForRouting(t, 500, 1)
	tgt := 0
	obj := NewStandard(g, tgt)
	if !math.IsInf(obj.Score(tgt), 1) {
		t.Fatal("target score not +Inf")
	}
	space := g.Space()
	for v := 1; v < 20; v++ {
		want := g.Weight(v) / (g.WMin() * g.Intensity() * space.DistPow(g.Pos(v), g.Pos(tgt)))
		if got := obj.Score(v); math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("score(%d) = %v, want %v", v, got, want)
		}
		// Cached value must be identical.
		if got2 := obj.Score(v); got2 != obj.Score(v) {
			t.Fatal("cache not stable")
		}
	}
}

func TestGeometricObjectiveOrdersByDistance(t *testing.T) {
	g := girgForRouting(t, 300, 2)
	obj := NewGeometric(g, 0)
	space := g.Space()
	for v := 1; v < 50; v++ {
		for u := v + 1; u < 50; u++ {
			dv := space.Dist(g.Pos(v), g.Pos(0))
			du := space.Dist(g.Pos(u), g.Pos(0))
			if (dv < du) != (obj.Score(v) > obj.Score(u)) {
				t.Fatalf("geometric objective does not invert distance")
			}
		}
	}
}

func TestRelaxedObjectiveProperties(t *testing.T) {
	g := girgForRouting(t, 500, 3)
	std := NewStandard(g, 0)
	relaxed := NewRelaxed(std, g, 0.2, 42)
	if !math.IsInf(relaxed.Score(0), 1) {
		t.Fatal("relaxed target score not +Inf")
	}
	// Deterministic across instances with the same seed.
	relaxed2 := NewRelaxed(NewStandard(g, 0), g, 0.2, 42)
	for v := 1; v < 100; v++ {
		if relaxed.Score(v) != relaxed2.Score(v) {
			t.Fatal("relaxed objective not deterministic")
		}
	}
	// eps = 0 reduces to the standard objective.
	zero := NewRelaxed(NewStandard(g, 0), g, 0, 7)
	for v := 1; v < 100; v++ {
		if math.Abs(zero.Score(v)-std.Score(v))/std.Score(v) > 1e-12 {
			t.Fatal("eps=0 relaxation deviates from standard objective")
		}
	}
	// Bounded deviation: scoretilde / score within [M^-eps, M^+eps].
	for v := 1; v < 100; v++ {
		phi := std.Score(v)
		m := math.Min(g.Weight(v), 1/phi)
		if m < 1 {
			m = 1
		}
		ratio := relaxed.Score(v) / phi
		lo, hi := math.Pow(m, -0.2), math.Pow(m, 0.2)
		if ratio < lo-1e-12 || ratio > hi+1e-12 {
			t.Fatalf("relaxed ratio %v outside [%v, %v]", ratio, lo, hi)
		}
	}
}

func TestBestNeighborOnGraph(t *testing.T) {
	g := girgForRouting(t, 300, 4)
	obj := NewStandard(g, 0)
	for v := 1; v < 50; v++ {
		got := BestNeighbor(g, obj, v)
		if g.Degree(v) == 0 {
			if got != -1 {
				t.Fatalf("isolated vertex has best neighbor %d", got)
			}
			continue
		}
		for _, u := range g.Neighbors(v) {
			if obj.Score(int(u)) > obj.Score(got) {
				t.Fatalf("BestNeighbor(%d) missed a better neighbor", v)
			}
		}
	}
}

func TestGreedyOnGIRGSucceedsOften(t *testing.T) {
	// Theorem 3.1 smoke test: success probability over random giant-pair
	// routings is bounded away from 0.
	g := girgForRouting(t, 2000, 5)
	giant := graph.GiantComponent(g)
	rng := xrand.New(6)
	const pairs = 200
	success := 0
	for i := 0; i < pairs; i++ {
		s := giant[rng.IntN(len(giant))]
		tgt := giant[rng.IntN(len(giant))]
		if s == tgt {
			continue
		}
		res := Greedy(g, NewStandard(g, tgt), s)
		if res.Success {
			success++
		}
	}
	if rate := float64(success) / pairs; rate < 0.3 {
		t.Fatalf("greedy success rate %v too low", rate)
	}
}

func TestPatchingOnGIRGAlwaysSucceedsInGiant(t *testing.T) {
	g := girgForRouting(t, 2000, 8)
	giant := graph.GiantComponent(g)
	rng := xrand.New(9)
	const pairs = 60
	for i := 0; i < pairs; i++ {
		s := giant[rng.IntN(len(giant))]
		tgt := giant[rng.IntN(len(giant))]
		if s == tgt {
			continue
		}
		obj := NewStandard(g, tgt)
		if res := (PhiDFS{}).Route(g, obj, s); !res.Success {
			t.Fatalf("PhiDFS failed within giant: %+v", res)
		}
		if res := (HistoryPatch{}).Route(g, obj, s); !res.Success {
			t.Fatalf("HistoryPatch failed within giant: %+v", res)
		}
	}
}

func TestPatchedNotSlowerThanGreedyWhenGreedyWins(t *testing.T) {
	// When pure greedy succeeds, a (P1)-respecting patcher follows the
	// identical path (greedy choices are forced).
	g := girgForRouting(t, 1500, 10)
	giant := graph.GiantComponent(g)
	rng := xrand.New(11)
	for i := 0; i < 50; i++ {
		s := giant[rng.IntN(len(giant))]
		tgt := giant[rng.IntN(len(giant))]
		if s == tgt {
			continue
		}
		obj := NewStandard(g, tgt)
		gres := Greedy(g, obj, s)
		if !gres.Success {
			continue
		}
		pres := PhiDFS{}.Route(g, obj, s)
		if pres.Moves != gres.Moves {
			t.Fatalf("patched path (%d moves) differs from greedy (%d) despite greedy success",
				pres.Moves, gres.Moves)
		}
		hres := HistoryPatch{}.Route(g, obj, s)
		if hres.Moves != gres.Moves {
			t.Fatalf("history path (%d moves) differs from greedy (%d)", hres.Moves, gres.Moves)
		}
	}
}

func TestTrajectoryRecords(t *testing.T) {
	g := newTestGraph(3, [][2]int{{0, 1}, {1, 2}})
	g.weights = []float64{1, 5, 2}
	obj := scoreObjective([]float64{1, 2, 0}, 2)
	res := Greedy(g, obj, 0)
	hops := Moves(g, obj, res, 0)
	if len(hops) != 3 {
		t.Fatalf("hops %v", hops)
	}
	if hops[1].V != 1 || hops[1].W != 5 || hops[1].Score != 2 {
		t.Fatalf("hop %v", hops[1])
	}
	if !math.IsInf(hops[2].Score, 1) {
		t.Fatal("target hop score not +Inf")
	}
}

func BenchmarkGreedyOnGIRG(b *testing.B) {
	g := girgForRouting(b, 10000, 12)
	giant := graph.GiantComponent(g)
	rng := xrand.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := giant[rng.IntN(len(giant))]
		tgt := giant[rng.IntN(len(giant))]
		if s == tgt {
			continue
		}
		_ = Greedy(g, NewStandard(g, tgt), s)
	}
}

func BenchmarkPhiDFSOnGIRG(b *testing.B) {
	g := girgForRouting(b, 10000, 14)
	giant := graph.GiantComponent(g)
	rng := xrand.New(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := giant[rng.IntN(len(giant))]
		tgt := giant[rng.IntN(len(giant))]
		if s == tgt {
			continue
		}
		_ = PhiDFS{}.Route(g, NewStandard(g, tgt), s)
	}
}
