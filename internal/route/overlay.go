package route

import "repro/internal/graph"

// GreedyCSROverlay is GreedyCSR over a live overlay: Algorithm 1 from s
// toward t under the standard objective, run by the same walk as GreedyCSR
// with each dirty vertex's sorted add/del delta merged into its base CSR row
// in place (two-pointer, no allocation) and added vertices reading their
// adjacency straight from the delta. The episode is bit-identical to
// GreedyCSR(o.Materialize(), t, s, ...) — the invariant that lets a
// compactor hot-swap the folded snapshot in without changing a single
// answer. A tombstoned current vertex reads an empty adjacency and
// classifies as the ordinary dead-end failure, so a walk that reaches a
// departed vertex (or starts on one) degrades, never panics or hangs. Pass
// the overlay's own N()-sized scratch; added vertices score like any other.
func GreedyCSROverlay(o *graph.Overlay, t, s int, b Budget, sc *Scratch, out *Result) {
	walk(o.Base(), o, t, s, nil, b, sc, out)
}
