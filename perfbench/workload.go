package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/xrand"
)

// spec is one workload: the graph it serves, how the daemons are laid out,
// and the traffic it offers.
type spec struct {
	name string
	// beta and lambda are the GIRG parameters of the served graph
	// (n = 20000·scale, d = 2, alpha = 2, wmin = 1 otherwise).
	beta, lambda float64
	// shards lists the Morton prefixes of a sharded layout, each served by
	// replicas daemons; nil means one daemon holding the whole graph.
	shards   []string
	replicas int
	hedge    time.Duration
	// readRate is the fixed offered read rate (1/s) at which p50, p99 and
	// CPU are measured; p99Limit is the latency limit max_qps must keep.
	readRate float64
	p99Limit time.Duration
	// writeRate is the rate (1/s) of the journaled write stream that runs
	// beside the reads against the routed graph; 0 sends no writes.
	writeRate float64
}

// specs are the workloads; BENCHMARK.json records why each was chosen.
//
// Each read rate is about a sixth of the read capacity the max_qps burst
// measured for the workload at the commit that introduced this benchmark,
// on a 2-vCPU virtual machine (Intel Xeon, GOMAXPROCS 2): ~2450 reads/s on
// hub and ~5300/s on sharded. At a sixth of capacity a read rarely queues,
// so p50 and CPU per query measure the work of a query, and a change that
// halved capacity would still leave the system far from saturation. churn
// offers hub's read stream plus writes at a quarter of its read rate, the
// ratio of the repository's CI mutating-load job (80 reads/s, 20 writes/s).
var specs = map[string]spec{
	// The GIRG of the routing benchmarks: n = 20000, beta = 2.5, seed 5.
	// Walks are two or three moves long but scan thousands of neighbours in
	// the high-weight core, so the walk kernel dominates a query.
	"hub": {name: "hub", beta: 2.5, lambda: 1, readRate: 400, p99Limit: 25 * time.Millisecond},
	// A sparse GIRG over three Morton shards with two replicas each. Walks
	// are longer but cheap, and most of a query's time is forwarding.
	"sharded": {name: "sharded", beta: 2.9, lambda: 0.05, shards: []string{"0", "10", "11"}, replicas: 2,
		hedge: 20 * time.Millisecond, readRate: 900, p99Limit: 25 * time.Millisecond},
	// The hub graph routed through a live overlay while a journaled write
	// stream changes it.
	"churn": {name: "churn", beta: 2.5, lambda: 1, readRate: 400, p99Limit: 25 * time.Millisecond, writeRate: 100},
}

// inputs is everything a run sends, made from the seed before any timing.
type inputs struct {
	pairs  [][2]int // the read pool: distinct giant-component (s, t) pairs
	writes [][]mutate.Op
}

func girgParams(sp spec, scale float64) girg.Params {
	p := girg.DefaultParams(20000 * scale)
	p.FixedN = true
	p.Beta = sp.beta
	p.Lambda = sp.lambda
	return p
}

// poolSize is how many distinct read pairs a run draws its stream from.
const poolSize = 2048

// makeInputs draws the read pool from pairSeed and the write stream from a
// seed derived from it, over g.
func makeInputs(g *graph.Graph, pairSeed uint64, writes int) inputs {
	var in inputs
	giant := graph.GiantComponent(g)
	rng := xrand.New(pairSeed)
	seen := map[[2]int]bool{}
	for len(in.pairs) < poolSize && len(in.pairs) < len(giant)*(len(giant)-1)/2 {
		pr := [2]int{giant[rng.IntN(len(giant))], giant[rng.IntN(len(giant))]}
		if pr[0] == pr[1] || seen[pr] {
			continue
		}
		seen[pr] = true
		in.pairs = append(in.pairs, pr)
	}
	in.writes = writeStream(g, in.pairs, xrand.New(pairSeed^0x9e3779b97f4a7c15), writes)
	return in
}

// writeStream generates n valid mutation batches from tracked live state:
// joins (a new vertex wired to three live ones), leaves and edge additions.
// Every op is valid when the batches are applied in order, so a rejected
// batch is a failure. Leaves never touch an endpoint of a read pair, so
// every read stays answerable.
func writeStream(g *graph.Graph, pairs [][2]int, rng *xrand.RNG, n int) [][]mutate.Op {
	dim := g.Space().Dim()
	protected := map[int]bool{}
	for _, pr := range pairs {
		protected[pr[0]], protected[pr[1]] = true, true
	}
	live := g.N()
	tomb := map[int]bool{}
	added := map[[2]int]bool{}
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	adjacent := func(u, v int) bool {
		return added[key(u, v)] || (u < g.N() && v < g.N() && g.HasEdge(u, v))
	}
	liveVertex := func() int {
		for {
			if v := rng.IntN(live); !tomb[v] {
				return v
			}
		}
	}
	batches := make([][]mutate.Op, 0, n)
	for len(batches) < n {
		var ops []mutate.Op
		switch r := rng.Float64(); {
		case r < 0.6:
			pos := make([]float64, dim)
			for j := range pos {
				pos[j] = rng.Float64()
			}
			v := live
			ops = append(ops, mutate.Op{Op: mutate.OpAddVertex, Pos: pos, W: 1 + 2*rng.Float64()})
			live++
			tomb[v] = true // not a contact of itself
			for len(ops) < 4 {
				u := liveVertex()
				if !added[key(u, v)] {
					added[key(u, v)] = true
					ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: v, V: u})
				}
			}
			delete(tomb, v)
		case r < 0.85:
			v := rng.IntN(g.N())
			if tomb[v] || protected[v] {
				continue
			}
			tomb[v] = true
			ops = append(ops, mutate.Op{Op: mutate.OpRemoveVertex, V: v})
		default:
			u, v := liveVertex(), liveVertex()
			if u == v || adjacent(u, v) {
				continue
			}
			added[key(u, v)] = true
			ops = append(ops, mutate.Op{Op: mutate.OpAddEdge, U: u, V: v})
		}
		batches = append(batches, ops)
	}
	return batches
}

// hopBound is Theorem 3.3's bound on greedy path length with the o(1) term
// dropped: 2/|log(beta-2)| · log log n.
func hopBound(beta float64, n int) float64 {
	return 2 / math.Abs(math.Log(beta-2)) * math.Log(math.Log(float64(n)))
}

func specByName(name string) (spec, error) {
	sp, ok := specs[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q (want hub, sharded or churn)", name)
	}
	return sp, nil
}
