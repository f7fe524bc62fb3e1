package route

import (
	"math"
	"time"

	"repro/internal/graph"
)

// inf is math.Inf(1) hoisted out of the hot loop.
var inf = math.Inf(1)

// This file is the v2 protocol surface: routing into caller-owned Results
// over reusable per-worker Scratch state, so the steady-state hot path
// performs zero heap allocations per episode.
//
// Three tiers, fastest first:
//
//   - The one concrete walk: GreedyCSR, GreedyCSRPartial and
//     GreedyCSROverlay are one-line entry points into walk, greedy routing
//     under the standard GIRG objective phi with scores computed inline
//     from the CSR arrays — no interface dispatch, no Objective closure, no
//     per-episode allocation (enforced by a testing.AllocsPerRun gate). Its
//     four input combinations are the plain graph, a shard's owned mask, a
//     live overlay, and an overlay under a mask.
//   - IntoRouter / BatchRouter: optional Protocol extensions. Protocols
//     implementing them route into a caller-owned Result with scratch
//     reuse; all built-ins do. greedyInto, the interface-path greedy, is
//     the reference oracle the concrete walk is tested against.
//   - The adapter: any other Protocol keeps working — RouteInto falls back
//     to the allocating Route call and copies the result into out.
type (
	// IntoRouter is the zero-alloc extension of Protocol: RouteInto routes
	// one episode from s toward obj.Target into out, reusing out's Path
	// backing array and sc's buffers. Implementations must not retain sc or
	// out, and out.Path is only valid until out's next reuse — callers that
	// keep paths across episodes copy them (Result.CopyInto). sc may be nil,
	// at the cost of per-episode allocations.
	IntoRouter interface {
		Protocol
		RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result)
	}

	// BatchRouter is the batch extension of Protocol: RouteBatch routes
	// episode i from srcs[i] toward objs[i].Target into out[i], amortizing
	// per-episode setup across the batch. len(objs), len(srcs) and len(out)
	// must agree.
	BatchRouter interface {
		Protocol
		RouteBatch(g Graph, objs []Objective, srcs []int, sc *Scratch, out []Result)
	}
)

// RouteInto routes one episode under p into out. Protocols implementing
// IntoRouter get the zero-alloc path; every other Protocol falls back
// through an adapter that calls the legacy Route and copies the episode into
// out, so pre-v2 protocols keep working unmodified.
func RouteInto(p Protocol, g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	if ir, ok := p.(IntoRouter); ok {
		ir.RouteInto(g, obj, s, sc, out)
		return
	}
	res := p.Route(g, obj, s)
	res.CopyInto(out)
}

// RouteBatch routes len(srcs) episodes under p, episode i from srcs[i]
// toward objs[i].Target into out[i]. Protocols implementing BatchRouter run
// their own batch loop; others are driven episode-by-episode through
// RouteInto.
func RouteBatch(p Protocol, g Graph, objs []Objective, srcs []int, sc *Scratch, out []Result) {
	if br, ok := p.(BatchRouter); ok {
		br.RouteBatch(g, objs, srcs, sc, out)
		return
	}
	for i := range srcs {
		RouteInto(p, g, objs[i], srcs[i], sc, &out[i])
	}
}

// Budget bounds one GreedyCSR episode the way the engine's budgetGraph
// bounds interface-path episodes: MaxScans caps adjacency scans (greedy
// performs exactly one per path vertex, so the cap lands on the same scan at
// any worker count) and Deadline is the wall-clock backstop. Exceeding
// either resets the episode to a FailDeadline result whose path is just the
// source, bit-identical to the engine's interface-path classification.
type Budget struct {
	// MaxScans is the adjacency-scan budget (0 = unlimited).
	MaxScans int
	// Deadline is the wall-clock cutoff (zero = none).
	Deadline time.Time
}

// GreedyCSR is the concrete-type fast path of the v2 surface: Algorithm 1
// from s toward t on a *graph.Graph under the standard objective
//
//	phi(v) = w_v / (wmin * intensity * ||x_v - x_t||^dim).
//
// The episode is bit-identical to Greedy(g, NewStandard(g, t), s): identical
// scores in identical comparison order, including the id tie-break. The
// graph must carry geometry (positions); weights may be nil (treated as 1,
// as Graph.Weight does). Steady-state calls perform zero heap allocations —
// TestGreedyCSRZeroAlloc gates this with testing.AllocsPerRun.
func GreedyCSR(g *graph.Graph, t, s int, b Budget, sc *Scratch, out *Result) {
	walk(g, nil, t, s, nil, b, sc, out)
}

// GreedyCSRPartial is GreedyCSR restricted to one shard of a Morton-prefix
// partition: it routes greedily from s toward t over the full CSR arrays but
// stops the moment the walk steps onto a vertex the shard does not own,
// returning that vertex so the caller can forward the continuation to the
// owning peer (internal/serve's /cluster/hop path).
//
// Greedy under the standard objective is strictly φ-increasing, so the walk
// never revisits a vertex even across shard boundaries: stitching the
// per-shard segments back together reproduces the single-node episode bit
// for bit, with Unique == len(Path) for every segment and the merged path.
//
// Return values:
//
//	exit >= 0: the walk stepped onto non-owned vertex exit (never t —
//	    arriving at the target is delivery wherever it lives). out holds the
//	    segment so far: Path ends at exit, Success false, Failure FailNone —
//	    deliberately unclassified, because the episode is not over.
//	exit == -1: the episode terminated on this shard. out is classified
//	    exactly as GreedyCSR would: delivered, dead-end, or a budget cut
//	    (FailDeadline with the path reset to s).
//
// owned must have length g.N(); owned[s] is not required — a hop request
// that raced a membership change still routes, it just forwards again on the
// next step.
func GreedyCSRPartial(g *graph.Graph, t, s int, owned []bool, b Budget, sc *Scratch, out *Result) (exit int) {
	return walk(g, nil, t, s, owned, b, sc, out)
}

// walk is the one greedy walk under the standard objective behind GreedyCSR,
// GreedyCSRPartial and GreedyCSROverlay. g is the CSR base; a non-nil o is a
// live overlay over g whose add/del deltas, tombstones and added vertices
// the scans honour; a non-nil owned stops the walk on the first non-owned
// vertex other than t and returns it (-1 when the episode terminated).
//
// Scores are memoized in sc's epoch-stamped cache, so the scan allocates
// nothing. A row without a delta is scanned straight off the CSR arrays; a
// dirty row is the two-pointer merge of the sorted base row minus del with
// the sorted add list, which visits exactly the order of the materialized
// row — so every combination routes bit-identically to GreedyCSR on
// o.Materialize().
func walk(g *graph.Graph, o *graph.Overlay, t, s int, owned []bool, b Budget, sc *Scratch, out *Result) (exit int) {
	out.reset(s)
	offsets, adj := g.CSR()
	pos := g.Positions()
	space := pos.Space()
	weights := g.Weights()
	norm := 1 / (g.WMin() * g.Intensity())
	baseN, n := g.N(), g.N()
	var xt []float64
	if o != nil {
		n, xt = o.N(), o.Pos(t)
	} else {
		xt = pos.At(t)
	}
	sc.beginScores(n)
	scores, stamps, epoch := sc.scores, sc.stamps, sc.epoch

	// phi is the memoized objective of a base vertex; the target is stamped
	// +Inf up front, exactly as NewStandard spells it. The closure captures
	// only locals and never escapes, so it compiles allocation-free and
	// small enough to inline into the clean-row scan.
	scores[t], stamps[t] = inf, epoch
	phi := func(v int) float64 {
		if stamps[v] != epoch {
			w := 1.0
			if weights != nil {
				w = weights[v]
			}
			scores[v] = w * norm / space.DistPow(pos.At(v), xt)
			stamps[v] = epoch
		}
		return scores[v]
	}
	// score also covers the overlay's added vertices, which only delta rows
	// and the walk's own position can reach.
	score := func(v int) float64 {
		if v >= baseN && stamps[v] != epoch {
			scores[v] = o.Weight(v) * norm / space.DistPow(o.Pos(v), xt)
			stamps[v] = epoch
		}
		return phi(v)
	}

	scans := 0
	v := s
	for v != t {
		// Budget check, in budgetGraph's order: count the scan, cut past
		// MaxScans, then the wall clock.
		scans++
		if b.MaxScans > 0 && scans > b.MaxScans ||
			!b.Deadline.IsZero() && time.Now().After(b.Deadline) {
			out.cutDeadline(s)
			return -1
		}
		// A tombstoned vertex reads an empty row and dead-ends below.
		var row, add, del []int32
		if o == nil || !o.Tombstoned(v) {
			if v < baseN {
				row = adj[offsets[v]:offsets[v+1]]
			}
			if o != nil {
				add, del = o.Delta(v)
			}
		}
		best := -1
		var bestScore float64
		if len(add) == 0 && len(del) == 0 {
			for _, u32 := range row {
				u := int(u32)
				su := phi(u)
				if best == -1 || better(su, bestScore, u, best) {
					best, bestScore = u, su
				}
			}
		} else {
			for ri, ai, di := 0, 0, 0; ri < len(row) || ai < len(add); {
				var u int
				var su float64
				if ai == len(add) || ri < len(row) && row[ri] < add[ai] {
					u32 := row[ri]
					ri++
					for di < len(del) && del[di] < u32 {
						di++
					}
					if di < len(del) && del[di] == u32 {
						continue
					}
					u = int(u32)
					su = phi(u)
				} else {
					u = int(add[ai])
					ai++
					su = score(u)
				}
				if best == -1 || better(su, bestScore, u, best) {
					best, bestScore = u, su
				}
			}
		}
		if best < 0 || !better(bestScore, score(v), best, v) {
			out.Stuck = v
			out.Unique = len(out.Path) // greedy never revisits
			out.classify()
			return -1
		}
		out.step(best)
		v = best
		if owned != nil && v != t && !owned[v] {
			// Crossed the shard boundary: hand the walk to v's owner. The
			// segment stays unclassified — Success false, Failure FailNone —
			// which no terminal episode ever is.
			out.Unique = len(out.Path)
			return v
		}
	}
	out.Success = true
	out.Unique = len(out.Path)
	out.classify()
	return -1
}

// cutDeadline resets r to the engine's budget-cut shape: a failed
// FailDeadline episode whose path is just the source.
func (r *Result) cutDeadline(s int) {
	r.reset(s)
	r.Unique = 1
	r.Failure = FailDeadline
}
