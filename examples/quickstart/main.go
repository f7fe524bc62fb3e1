// Quickstart: sample a small GIRG, route one message greedily, and print
// what happened. This is the smallest end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/girg"
)

func main() {
	// A geometric inhomogeneous random graph with 5000 expected vertices
	// on the 2-torus, power-law weights with exponent 2.5 (the paper's
	// scale-free regime), and long-range decay alpha = 2.
	params := girg.DefaultParams(5000)
	nw, err := core.NewGIRG(params, 42 /* seed */, girg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	g := nw.Graph
	fmt.Printf("sampled %s: %d vertices, %d edges, giant component %d vertices\n",
		nw.Label, g.N(), g.M(), len(nw.Giant()))

	// Route a message between the two ends of the giant component using
	// the paper's greedy protocol (Algorithm 1): every vertex forwards to
	// the neighbor most likely to know the target.
	giant := nw.Giant()
	s, t := giant[0], giant[len(giant)-1]
	res, err := nw.Route("greedy", s, t)
	if err != nil {
		log.Fatal(err)
	}
	if res.Success {
		fmt.Printf("greedy routing %d -> %d delivered in %d hops: %v\n", s, t, res.Moves, res.Path)
	} else {
		fmt.Printf("greedy routing %d -> %d stuck at %d after %d hops — patching to the rescue\n",
			s, t, res.Stuck, res.Moves)
	}

	// The paper's Algorithm 2 (greedy Phi-DFS patching) is guaranteed to
	// deliver within a connected component. Protocols live in a registry and
	// are addressed by name; core.Protocols() lists what is available.
	res, err = nw.Route("phi-dfs", s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phi-dfs patching: delivered=%v in %d moves (%d distinct vertices)\n",
		res.Success, res.Moves, res.Unique)
}
