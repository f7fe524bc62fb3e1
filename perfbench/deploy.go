package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mutate"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/torus"
)

// daemon is one routing daemon served on a loopback listener in this
// process, as `loadgen -self` does.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	node *cluster.Node
	log  *mutate.Log
	done chan struct{}
}

// deployment is a workload's daemons and where its traffic goes.
type deployment struct {
	daemons []*daemon
	entries []string // base URLs reads are spread over
	dir     string   // snapshot and journal
	// set-up timings: graph generation, snapshot loads, and starting the
	// daemons through cluster membership and readiness
	generate, load, join time.Duration
	loads                int
}

// daemonLogger keeps the daemons quiet: per-request INFO lines would cost
// more than some of the layers measured.
var daemonLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

func newNetwork(g *graph.Graph) *core.Network {
	return &core.Network{
		Graph:        g,
		Label:        fmt.Sprintf("perfbench(n=%d)", g.N()),
		NewObjective: func(t int) route.Objective { return route.NewStandard(g, t) },
		StandardPhi:  true,
	}
}

// startDaemon serves srv on a fresh loopback port.
func startDaemon(srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

func (d *daemon) addr() string { return d.url[len("http://"):] }

// close stops the listener and waits for the serve loop to exit.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	if d.log != nil {
		d.log.Close()
	}
}

func (dep *deployment) close() {
	for _, d := range dep.daemons {
		d.close()
	}
	if dep.dir != "" {
		os.RemoveAll(dep.dir)
	}
}

// newDaemon serves nw as the default graph of a fresh daemon; a non-empty
// shard joins it to a cluster as that Morton prefix's replica.
func newDaemon(nw *core.Network, shard string, replica int, hedge time.Duration) (*daemon, error) {
	srv := serve.New(serve.Config{Workers: 4, RequestTimeout: 5 * time.Second, HedgeAfter: hedge, Logger: daemonLogger})
	srv.AddNetwork(serve.DefaultGraph, nw)
	d, err := startDaemon(srv)
	if err != nil || shard == "" {
		return d, err
	}
	prefix, err := torus.ParsePrefix(shard)
	if err != nil {
		return d, err
	}
	if d.node, err = cluster.NewNode(nw.Graph, prefix, d.addr(), cluster.Config{Seed: 1, Replica: replica}); err != nil {
		return d, err
	}
	srv.EnableCluster(d.node, &http.Client{})
	return d, nil
}

// joinMembers gives every clustered daemon every other one as a peer, and
// waits until each daemon answers /readyz.
func joinMembers(ds []*daemon) error {
	for _, d := range ds {
		for _, p := range ds {
			if p != d && d.node != nil && p.node != nil {
				d.node.Members().Add(p.node.Self())
			}
		}
	}
	for _, d := range ds {
		if err := waitReady(d.url); err != nil {
			return err
		}
	}
	return nil
}

// deploy builds a workload's daemons from scratch, as an operator would:
// generate the graph, write it as a girgb snapshot, have every daemon load
// its own copy, wire cluster membership or open the mutation journal, then
// wait until each daemon answers /readyz.
func deploy(sp spec, p girg.Params, graphSeed uint64, workDir string) (*deployment, error) {
	dir, err := os.MkdirTemp(workDir, sp.name+"-*")
	if err != nil {
		return nil, err
	}
	dep := &deployment{dir: dir}
	ok := false
	defer func() {
		if !ok {
			dep.close()
		}
	}()
	t0 := time.Now()
	g, err := girg.Generate(p, graphSeed, girg.Options{})
	if err != nil {
		return nil, err
	}
	dep.generate = time.Since(t0)
	snap := filepath.Join(dir, "graph.girgb")
	if err := atomicio.WriteFile(snap, func(w io.Writer) error { return graphio.WriteBinary(w, g) }); err != nil {
		return nil, err
	}

	type placement struct {
		shard   string
		replica int
	}
	var places []placement
	if sp.shards == nil {
		places = []placement{{}}
	}
	for _, sh := range sp.shards {
		for r := 0; r < sp.replicas; r++ {
			places = append(places, placement{sh, r})
		}
	}
	for _, pl := range places {
		tl := time.Now()
		dg, err := graphio.ReadFile(snap)
		if err != nil {
			return nil, err
		}
		dep.load += time.Since(tl)
		dep.loads++
		tc := time.Now()
		d, err := newDaemon(newNetwork(dg), pl.shard, pl.replica, sp.hedge)
		if d != nil {
			dep.daemons = append(dep.daemons, d)
		}
		if err != nil {
			return nil, err
		}
		dep.join += time.Since(tc)
		if sp.writeRate > 0 {
			// The single daemon journals every write to the graph it routes.
			d.log, err = mutate.Open(filepath.Join(dir, "journal"), dg, mutate.Config{})
			if err != nil {
				return nil, err
			}
			if err := d.srv.EnableMutation(d.log, serve.DefaultGraph); err != nil {
				return nil, err
			}
		}
		dep.entries = append(dep.entries, d.url)
	}
	tc := time.Now()
	if err := joinMembers(dep.daemons); err != nil {
		return nil, err
	}
	dep.join += time.Since(tc)
	ok = true
	return dep, nil
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}
