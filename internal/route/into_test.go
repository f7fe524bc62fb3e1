package route

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/torus"
	"repro/internal/xrand"
)

// sameEpisode asserts two Results describe the identical episode.
func sameEpisode(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Success != got.Success || want.Moves != got.Moves ||
		want.Unique != got.Unique || want.Stuck != got.Stuck ||
		want.Truncated != got.Truncated || want.Failure != got.Failure ||
		!reflect.DeepEqual(want.Path, got.Path) {
		t.Fatalf("%s: episodes differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestRouteIntoMatchesRouteAllProtocols drives every registered built-in
// through both API generations on random GIRG pairs and demands bit-identical
// episodes, with the scratch-backed Results reused across episodes to expose
// stale-state bugs.
func TestRouteIntoMatchesRouteAllProtocols(t *testing.T) {
	g := girgForRouting(t, 3000, 11)
	rng := xrand.New(99)
	for _, name := range Registered() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		var out Result
		for i := 0; i < 25; i++ {
			s := rng.IntN(g.N())
			tgt := rng.IntN(g.N())
			obj := NewStandard(g, tgt)
			want := p.Route(g, obj, s)
			// Fresh objective: memoizing objectives (lookahead) must not
			// leak one episode's cache into the next comparison.
			RouteInto(p, g, NewStandard(g, tgt), s, &sc, &out)
			sameEpisode(t, name, want, out)
		}
	}
}

// TestRouteIntoAdapterForLegacyProtocols checks that a Protocol implementing
// only the v1 surface still works through RouteInto/RouteBatch, with the
// result copied into the caller's Result.
func TestRouteIntoAdapterForLegacyProtocols(t *testing.T) {
	g := newTestGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	obj := scoreObjective([]float64{0.1, 0.2, 0.3, 0}, 3)
	legacy := legacyOnly{}
	var out Result
	out.Path = append(out.Path, 7, 7, 7, 7, 7, 7) // dirty reusable buffer
	RouteInto(legacy, g, obj, 0, nil, &out)
	want := legacy.Route(g, obj, 0)
	sameEpisode(t, "legacy adapter", want, out)

	objs := []Objective{obj, obj}
	srcs := []int{0, 1}
	outs := make([]Result, 2)
	RouteBatch(legacy, g, objs, srcs, nil, outs)
	sameEpisode(t, "legacy batch[0]", legacy.Route(g, obj, 0), outs[0])
	sameEpisode(t, "legacy batch[1]", legacy.Route(g, obj, 1), outs[1])
}

// legacyOnly is a v1-only Protocol (no RouteInto/RouteBatch): the adapter
// path must carry it unmodified.
type legacyOnly struct{}

func (legacyOnly) Name() string { return "test-legacy-only" }
func (legacyOnly) Route(g Graph, obj Objective, s int) Result {
	return Greedy(g, obj, s)
}

// TestGreedyCSRMatchesInterfaceGreedy is the core equivalence of the fast
// path: on random GIRGs, GreedyCSR must produce episodes bit-identical to
// Greedy under NewStandard — same paths, same dead-ends, same tie-breaks.
func TestGreedyCSRMatchesInterfaceGreedy(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41} {
		g := girgForRouting(t, 2000, seed)
		rng := xrand.New(seed * 7)
		var sc Scratch
		var out Result
		for i := 0; i < 60; i++ {
			s := rng.IntN(g.N())
			tgt := rng.IntN(g.N())
			want := Greedy(g, NewStandard(g, tgt), s)
			GreedyCSR(g, tgt, s, Budget{}, &sc, &out)
			sameEpisode(t, "csr", want, out)
		}
	}
}

// TestGreedyCSRBudgetMatchesEngineCut pins the budget semantics: exceeding
// MaxScans (or the deadline) must yield the engine's budget-cut shape — a
// source-only FailDeadline episode — and the scan count at which the cut
// fires must match the per-path-vertex accounting of the engine's
// budget-wrapped graph (one scan per Neighbors call, cut when count exceeds
// the cap).
func TestGreedyCSRBudgetMatchesEngineCut(t *testing.T) {
	g := girgForRouting(t, 2000, 23)
	rng := xrand.New(5)
	var sc Scratch
	var out Result
	cut := Result{Path: []int{0}, Unique: 1, Stuck: -1, Failure: FailDeadline}
	for i := 0; i < 200; i++ {
		s := rng.IntN(g.N())
		tgt := rng.IntN(g.N())
		full := Greedy(g, NewStandard(g, tgt), s)
		scans := len(full.Path) // greedy scans each path vertex except the target...
		if full.Success {
			scans--
		}
		// An exactly-sufficient budget completes the episode.
		GreedyCSR(g, tgt, s, Budget{MaxScans: scans}, &sc, &out)
		sameEpisode(t, "exact budget", full, out)
		if scans > 1 {
			// One scan short cuts it.
			GreedyCSR(g, tgt, s, Budget{MaxScans: scans - 1}, &sc, &out)
			cut.Path[0] = s
			sameEpisode(t, "short budget", cut, out)
		}
	}
	// An already-expired deadline cuts before the first move.
	s := 1
	GreedyCSR(g, 0, s, Budget{Deadline: time.Now().Add(-time.Second)}, &sc, &out)
	cut.Path[0] = s
	sameEpisode(t, "expired deadline", cut, out)
}

// TestGreedyCSRZeroAlloc is the enforced allocation gate of the v2 hot path:
// after warm-up, an episode of the concrete walk performs zero heap
// allocations in each of its four input combinations — the plain graph, a
// shard's owned mask, a churned live overlay, and the overlay under a mask.
func TestGreedyCSRZeroAlloc(t *testing.T) {
	g := girgForRouting(t, 2000, 9)
	o := churnOverlay(t, g, 20, 13)
	evens := func(n int) []bool {
		owned := make([]bool, n)
		for v := range owned {
			owned[v] = v%2 == 0
		}
		return owned
	}
	for _, tc := range []struct {
		name  string
		o     *graph.Overlay
		owned []bool
	}{
		{"plain", nil, nil},
		{"masked", nil, evens(g.N())},
		{"overlay", o, nil},
		{"overlay+masked", o, evens(o.N())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := g.N()
			if tc.o != nil {
				n = tc.o.N()
			}
			rng := xrand.New(77)
			pairs := make([][2]int, 64)
			for i := range pairs {
				pairs[i] = [2]int{rng.IntN(n), rng.IntN(n)}
			}
			var sc Scratch
			var out Result
			// Warm up: grow the scratch cache and the path buffer to steady
			// state.
			for _, p := range pairs {
				walk(g, tc.o, p[1], p[0], tc.owned, Budget{}, &sc, &out)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				p := pairs[i%len(pairs)]
				i++
				walk(g, tc.o, p[1], p[0], tc.owned, Budget{}, &sc, &out)
			})
			if allocs != 0 {
				t.Fatalf("walk allocates %.1f times per episode, want 0", allocs)
			}
		})
	}
}

// TestGreedyRouterRouteIntoZeroAllocOnCustomObjective verifies the generic
// IntoRouter path at least reuses the Result: with a closure objective that
// does not itself allocate, steady-state episodes are allocation-free.
func TestGreedyRouterRouteIntoZeroAllocOnCustomObjective(t *testing.T) {
	g := newTestGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	scores := []float64{0.1, 0.2, 0.3, 0.4, 0}
	obj := scoreObjective(scores, 4)
	var out Result
	var r GreedyRouter
	r.RouteInto(g, obj, 0, nil, &out) // warm up the path buffer
	allocs := testing.AllocsPerRun(32, func() {
		r.RouteInto(g, obj, 0, nil, &out)
	})
	if allocs != 0 {
		t.Fatalf("GreedyRouter.RouteInto allocates %.1f times per episode, want 0", allocs)
	}
}

// TestScratchEpochWraparound forces the uint32 episode epoch to wrap and
// checks the caches stay sound (stale stamps from epoch 2^32-1 must not leak
// into the fresh epoch).
func TestScratchEpochWraparound(t *testing.T) {
	var sc Scratch
	sc.beginScores(4)
	sc.scores[2] = 123
	sc.stamps[2] = sc.epoch // valid entry in the current epoch
	sc.epoch = math.MaxUint32
	sc.beginScores(4)
	if sc.epoch == 0 {
		t.Fatal("epoch 0 would validate zeroed stamps")
	}
	for v, st := range sc.stamps {
		if st == sc.epoch {
			t.Fatalf("stale stamp for vertex %d survived wraparound", v)
		}
	}
	sc.seenEpoch = math.MaxUint32
	sc.beginSeen(4)
	if sc.seenEpoch == 0 {
		t.Fatal("seen epoch 0 would validate zeroed marks")
	}
}

// TestResultCopyInto checks the deep copy reuses the destination's backing
// array and detaches from the source.
func TestResultCopyInto(t *testing.T) {
	src := Result{Success: true, Path: []int{3, 1, 2}, Moves: 2, Unique: 3, Stuck: -1}
	var dst Result
	dst.Path = make([]int, 0, 8)
	base := &dst.Path[:1][0]
	src.CopyInto(&dst)
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("copy differs: %+v vs %+v", src, dst)
	}
	if &dst.Path[0] != base {
		t.Fatal("CopyInto reallocated the destination path buffer")
	}
	dst.Path[0] = 99
	if src.Path[0] == 99 {
		t.Fatal("CopyInto aliases the source path")
	}
}

// TestGreedyCSRUnweightedGraph covers the weights == nil branch of the
// inline phi (Graph.Weight treats missing weights as 1).
func TestGreedyCSRUnweightedGraph(t *testing.T) {
	space, err := torus.NewSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	pos := torus.NewPositions(space, 16)
	for i := 0; i < 16; i++ {
		pos.Set(i, []float64{float64(i) / 16})
	}
	b, err := graph.NewBuilder(16, pos, nil, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Finish()
	var sc Scratch
	var out Result
	want := Greedy(g, NewStandard(g, 15), 0)
	GreedyCSR(g, 15, 0, Budget{}, &sc, &out)
	sameEpisode(t, "unweighted", want, out)
}
