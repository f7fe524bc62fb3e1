package route

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// churnOverlay applies batches of deterministic mutations to a fresh overlay
// over g: vertex joins placed uniformly with a handful of edges, vertex
// leaves, and random edge insertions/removals. It returns the drifted
// overlay.
func churnOverlay(t testing.TB, g *graph.Graph, batches int, seed uint64) *graph.Overlay {
	t.Helper()
	o := graph.NewOverlay(g)
	rng := xrand.New(seed)
	dim := g.Space().Dim()
	for b := 0; b < batches; b++ {
		e := o.Edit()
		// One join with a few edges to live base vertices.
		pos := make([]float64, dim)
		for i := range pos {
			pos[i] = rng.Float64()
		}
		nv, err := e.AddVertex(pos, g.WMin()*(1+rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			u := rng.IntN(nv)
			if u != nv && !e.Tombstoned(u) && !e.HasEdge(nv, u) {
				if err := e.AddEdge(nv, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One leave.
		for tries := 0; tries < 20; tries++ {
			v := rng.IntN(g.N())
			if !e.Tombstoned(v) {
				if err := e.RemoveVertex(v); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		// A few random edge flips.
		for k := 0; k < 6; k++ {
			u, v := rng.IntN(g.N()), rng.IntN(g.N())
			if u == v || e.Tombstoned(u) || e.Tombstoned(v) {
				continue
			}
			if e.HasEdge(u, v) {
				if err := e.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := e.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		o = e.Finish()
	}
	return o
}

func TestGreedyCSROverlayEmptyMatchesCSR(t *testing.T) {
	g := girgForRouting(t, 2000, 21)
	o := graph.NewOverlay(g)
	rng := xrand.New(5)
	var sc1, sc2 Scratch
	var out1, out2 Result
	for i := 0; i < 50; i++ {
		s, tgt := rng.IntN(g.N()), rng.IntN(g.N())
		GreedyCSR(g, tgt, s, Budget{}, &sc1, &out1)
		GreedyCSROverlay(o, tgt, s, Budget{}, &sc2, &out2)
		sameEpisode(t, "empty overlay", out1, out2)
	}
}

func TestGreedyCSROverlayMatchesMaterialized(t *testing.T) {
	g := girgForRouting(t, 2000, 22)
	o := churnOverlay(t, g, 40, 7)
	mg, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	var sc1, sc2 Scratch
	var out1, out2 Result
	for i := 0; i < 80; i++ {
		s, tgt := rng.IntN(o.N()), rng.IntN(o.N())
		GreedyCSR(mg, tgt, s, Budget{}, &sc1, &out1)
		GreedyCSROverlay(o, tgt, s, Budget{}, &sc2, &out2)
		sameEpisode(t, "churned overlay", out1, out2)
	}
	// Budget cuts must land on the same scan.
	for i := 0; i < 30; i++ {
		s, tgt := rng.IntN(o.N()), rng.IntN(o.N())
		for _, cap := range []int{1, 2, 3, 5} {
			GreedyCSR(mg, tgt, s, Budget{MaxScans: cap}, &sc1, &out1)
			GreedyCSROverlay(o, tgt, s, Budget{MaxScans: cap}, &sc2, &out2)
			sameEpisode(t, "budget cut", out1, out2)
		}
	}
}

// TestAllProtocolsOverlayMatchMaterialized is the acceptance check that
// routing over the overlay is bit-identical to routing over the compacted
// snapshot for every registered protocol, via the interface path and the
// generalized GeoGraph objective.
func TestAllProtocolsOverlayMatchMaterialized(t *testing.T) {
	g := girgForRouting(t, 1500, 23)
	o := churnOverlay(t, g, 30, 8)
	mg, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	for _, name := range Registered() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var sc1, sc2 Scratch
		var out1, out2 Result
		for i := 0; i < 25; i++ {
			s, tgt := rng.IntN(o.N()), rng.IntN(o.N())
			RouteInto(p, mg, NewStandard(mg, tgt), s, &sc1, &out1)
			RouteInto(p, o, NewStandard(o, tgt), s, &sc2, &out2)
			sameEpisode(t, name, out1, out2)
		}
	}
}

func TestGreedyCSROverlayTombstonedDeadEnd(t *testing.T) {
	g := girgForRouting(t, 800, 24)
	victim, tgt := -1, -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 0 {
			if victim < 0 {
				victim = v
			} else if tgt < 0 && v != victim {
				tgt = v
			}
		}
	}
	e := graph.NewOverlay(g).Edit()
	if err := e.RemoveVertex(victim); err != nil {
		t.Fatal(err)
	}
	o := e.Finish()
	var sc Scratch
	var out Result
	// A walk starting on a departed vertex dead-ends immediately.
	GreedyCSROverlay(o, tgt, victim, Budget{}, &sc, &out)
	if out.Success || out.Failure != FailDeadEnd || out.Stuck != victim {
		t.Fatalf("tombstoned source: %+v", out)
	}
	// A walk toward a departed target terminates with a classified failure
	// (the target is unreachable; greedy dead-ends in bounded time).
	GreedyCSROverlay(o, victim, tgt, Budget{MaxScans: 1 << 20}, &sc, &out)
	if out.Success {
		t.Fatal("delivered to a tombstoned target")
	}
	if out.Failure == FailNone {
		t.Fatalf("unclassified failure: %+v", out)
	}
	// Interface path: the overlay's empty Neighbors gives the same class.
	res := Greedy(o, NewStandard(o, tgt), victim)
	if res.Success || res.Failure != FailDeadEnd {
		t.Fatalf("interface path on tombstoned source: %+v", res)
	}
}

// TestGreedyCSROverlayPartialStitch splits the overlay's id space into two
// synthetic shards and checks the stitched segments of the overlay+masked
// walk reproduce the single-node overlay episode bit for bit — the cluster
// invariant lifted onto live graphs — unbudgeted and under the scan budgets
// whose cuts must land on the same scan.
func TestGreedyCSROverlayPartialStitch(t *testing.T) {
	g := girgForRouting(t, 1500, 25)
	o := churnOverlay(t, g, 25, 11)
	owned := make([][]bool, 2)
	for shard := range owned {
		owned[shard] = make([]bool, o.N())
		for v := 0; v < o.N(); v++ {
			owned[shard][v] = v%2 == shard
		}
	}
	rng := xrand.New(12)
	var scFull, scSeg Scratch
	var full, seg Result
	for i := 0; i < 40; i++ {
		s, tgt := rng.IntN(o.N()), rng.IntN(o.N())
		for _, cap := range []int{0, 1, 2, 3, 5} {
			GreedyCSROverlay(o, tgt, s, Budget{MaxScans: cap}, &scFull, &full)

			var stitched Result
			stitched.Path = append(stitched.Path[:0], s)
			cur := s
			for {
				// Each segment gets the scans the walk has left, one per
				// move so far (cap 0 leaves a non-positive count: no cap).
				left := cap - (len(stitched.Path) - 1)
				cut, exit := cap > 0 && left == 0, -1
				if !cut {
					exit = walk(g, o, tgt, cur, owned[cur%2], Budget{MaxScans: left}, &scSeg, &seg)
					cut = seg.Failure == FailDeadline
				}
				if cut {
					stitched = Result{Path: []int{s}, Stuck: -1, Failure: FailDeadline}
					break
				}
				stitched.Path = append(stitched.Path, seg.Path[1:]...)
				if exit < 0 {
					stitched.Success = seg.Success
					stitched.Stuck = seg.Stuck
					stitched.Failure = seg.Failure
					stitched.Truncated = seg.Truncated
					break
				}
				cur = exit
				if len(stitched.Path) > o.N() {
					t.Fatal("stitch loop did not terminate")
				}
			}
			stitched.Moves = len(stitched.Path) - 1
			stitched.Unique = len(stitched.Path)
			sameEpisode(t, fmt.Sprintf("stitched, MaxScans %d", cap), full, stitched)
		}
	}
}
