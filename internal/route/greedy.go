package route

// GreedyRouter is the pure greedy protocol of Algorithm 1 as a registered
// Protocol: from the current vertex, move to the neighbor with the largest
// objective if it improves on the current vertex, otherwise drop the packet.
type GreedyRouter struct{}

// Name returns "greedy".
func (GreedyRouter) Name() string { return "greedy" }

// Route runs Algorithm 1 from s toward obj.Target.
func (GreedyRouter) Route(g Graph, obj Objective, s int) Result {
	return Greedy(g, obj, s)
}

// RouteInto is the zero-alloc v2 path: it routes into out, reusing out's
// Path backing array (sc is not needed — greedy keeps no aux state and
// never revisits a vertex, so Unique is the path length).
func (GreedyRouter) RouteInto(g Graph, obj Objective, s int, sc *Scratch, out *Result) {
	greedyInto(g, obj, s, out)
}

// RouteBatch routes the batch episode-by-episode; greedy has no cross-episode
// setup to amortize beyond the reused buffers.
func (GreedyRouter) RouteBatch(g Graph, objs []Objective, srcs []int, sc *Scratch, out []Result) {
	for i := range srcs {
		greedyInto(g, objs[i], srcs[i], &out[i])
	}
}

func init() { Register(GreedyRouter{}) }

// Graph is the read-only view routing protocols need. *graph.Graph
// satisfies it.
type Graph interface {
	N() int
	Neighbors(v int) []int32
	Weight(v int) float64
}

// Greedy runs Algorithm 1 from s toward obj.Target and returns the episode.
// It is a one-line adapter over the RouteInto convention.
func Greedy(g Graph, obj Objective, s int) Result {
	var res Result
	greedyInto(g, obj, s, &res)
	return res
}

// greedyInto is Algorithm 1 building into out. A greedy path visits every
// vertex at most once (scores strictly increase along it, ties broken by
// id), so Unique is simply the path length and no visited set is needed.
func greedyInto(g Graph, obj Objective, s int, out *Result) {
	out.reset(s)
	v := s
	for v != obj.Target {
		u := bestNeighborIface(g, obj, v)
		if u < 0 || !better(obj.Score(u), obj.Score(v), u, v) {
			out.Stuck = v
			out.Unique = len(out.Path)
			out.classify()
			return
		}
		out.step(u)
		v = u
	}
	out.Success = true
	out.Unique = len(out.Path)
	out.classify()
}

func bestNeighborIface(g Graph, obj Objective, v int) int {
	best := -1
	var bestScore float64
	for _, u32 := range g.Neighbors(v) {
		u := int(u32)
		s := obj.Score(u)
		if best == -1 || better(s, bestScore, u, best) {
			best, bestScore = u, s
		}
	}
	return best
}
