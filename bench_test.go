// Package repro's root benchmarks regenerate every table and figure of the
// reproduction (one benchmark per experiment of DESIGN.md Section 4) plus
// end-to-end generator/router benchmarks. By default the experiments run at
// a reduced scale so `go test -bench=.` finishes in minutes; set
// REPRO_BENCH_SCALE=1 to reproduce the full tables recorded in
// EXPERIMENTS.md (cmd/smallworld prints the same tables interactively).
//
// Benchmarks report experiment metrics (success rates, fitted slopes,
// stretch) through testing.B.ReportMetric, so the shapes the paper predicts
// are visible straight from the benchmark output.
package repro

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/girg"
	"repro/internal/graph"
	"repro/internal/hrg"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/xrand"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// runExperiment executes one registered experiment per benchmark iteration
// and reports its headline metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := expt.Config{Seed: 1, Scale: benchScale()}
	var last expt.Table
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		t, err := e.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = t
	}
	for name, v := range last.Metrics {
		b.ReportMetric(v, name)
	}
}

// One benchmark per table/figure (DESIGN.md Section 4).

func BenchmarkE1SuccessProbability(b *testing.B)      { runExperiment(b, "E1") }
func BenchmarkE2FailureVsWmin(b *testing.B)           { runExperiment(b, "E2") }
func BenchmarkE3SuccessVsEndpointWeight(b *testing.B) { runExperiment(b, "E3") }
func BenchmarkE4PathLengthScaling(b *testing.B)       { runExperiment(b, "E4") }
func BenchmarkE5Stretch(b *testing.B)                 { runExperiment(b, "E5") }
func BenchmarkE6Patching(b *testing.B)                { runExperiment(b, "E6") }
func BenchmarkE7Relaxations(b *testing.B)             { runExperiment(b, "E7") }
func BenchmarkE8Hyperbolic(b *testing.B)              { runExperiment(b, "E8") }
func BenchmarkE9KleinbergBaseline(b *testing.B)       { runExperiment(b, "E9") }
func BenchmarkE10GeometricVsGreedy(b *testing.B)      { runExperiment(b, "E10") }
func BenchmarkE11ModelValidation(b *testing.B)        { runExperiment(b, "E11") }
func BenchmarkE12EdgeFailures(b *testing.B)           { runExperiment(b, "E12") }
func BenchmarkE13RefinedBound(b *testing.B)           { runExperiment(b, "E13") }
func BenchmarkE14GeometryNecessity(b *testing.B)      { runExperiment(b, "E14") }
func BenchmarkE15LayerStructure(b *testing.B)         { runExperiment(b, "E15") }
func BenchmarkE16ChaosSweep(b *testing.B)             { runExperiment(b, "E16") }
func BenchmarkE17ChurnSweep(b *testing.B)             { runExperiment(b, "E17") }
func BenchmarkF1Trajectory(b *testing.B)              { runExperiment(b, "F1") }

// End-to-end pipeline benchmarks: how fast the library generates and routes.

func BenchmarkPipelineGIRGGenerate(b *testing.B) {
	n := 20000 * benchScale() * 10
	if n < 2000 {
		n = 2000
	}
	p := girg.DefaultParams(n)
	p.FixedN = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := girg.Generate(p, uint64(i+1), girg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.M()), "edges")
	}
}

func BenchmarkPipelineGreedyEpisodes(b *testing.B) {
	p := girg.DefaultParams(20000)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 5, girg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.RunMilgram(nw, core.MilgramConfig{Pairs: 50, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Success.P, "success")
	}
}

// Overlay-path variants of the pipeline bench: the same 50-episode batches,
// routed over a live overlay. The empty variant must cost the same as the
// base bench — an empty overlay routes through the unchanged CSR fast
// paths — while the churn variant (2% joins wired to 3 contacts each, 2%
// tombstoned leaves) bounds the merged-adjacency overhead of a live graph,
// which the benchmark ladder (`make bench-ladder`, churn workload) reports
// as graph.overlay_walk_us.

func overlayBenchNetwork(b *testing.B, churn bool) *core.Network {
	b.Helper()
	p := girg.DefaultParams(20000)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 5, girg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := nw.Graph
	ov := graph.NewOverlay(g)
	if churn {
		rng := xrand.New(77)
		dim := g.Space().Dim()
		e := ov.Edit()
		for i := 0; i < g.N()/50; i++ {
			pos := make([]float64, dim)
			for d := range pos {
				pos[d] = rng.Float64()
			}
			id, err := e.AddVertex(pos, g.WMin()*(1+rng.Float64()))
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if u := rng.IntN(g.N()); !e.Tombstoned(u) && !e.HasEdge(id, u) {
					if err := e.AddEdge(id, u); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		for picked := 0; picked < g.N()/50; {
			if v := rng.IntN(g.N()); !e.Tombstoned(v) {
				if err := e.RemoveVertex(v); err != nil {
					b.Fatal(err)
				}
				picked++
			}
		}
		ov = e.Finish()
	}
	if err := nw.SetOverlay(ov); err != nil {
		b.Fatal(err)
	}
	return nw
}

func benchOverlayEpisodes(b *testing.B, churn bool) {
	nw := overlayBenchNetwork(b, churn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.RunMilgram(nw, core.MilgramConfig{Pairs: 50, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Success.P, "success")
	}
}

func BenchmarkPipelineGreedyEpisodesOverlayEmpty(b *testing.B) { benchOverlayEpisodes(b, false) }
func BenchmarkPipelineGreedyEpisodesOverlayChurn(b *testing.B) { benchOverlayEpisodes(b, true) }

// BenchmarkGreedyEpisode is the hot-path benchmark of the v2 routing
// surface: one standard-φ greedy episode through route.GreedyCSR with
// reused Scratch/Result buffers. The headline number is allocs/op, which
// must be 0 — TestGreedyCSRZeroAlloc in internal/route enforces the same
// property with testing.AllocsPerRun, so a regression fails the test suite,
// not just this benchmark's eyeball check.
func BenchmarkGreedyEpisode(b *testing.B) {
	p := girg.DefaultParams(20000)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 5, girg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := nw.Graph
	giant := graph.GiantComponent(g)
	rng := xrand.New(7)
	const nPairs = 64
	pairs := make([][2]int, nPairs)
	for i := range pairs {
		pairs[i] = [2]int{giant[rng.IntN(len(giant))], giant[rng.IntN(len(giant))]}
	}
	var (
		sc  route.Scratch
		out route.Result
	)
	budget := route.Budget{MaxScans: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%nPairs]
		route.GreedyCSR(g, pr[1], pr[0], budget, &sc, &out)
	}
}

// BenchmarkServeRouteBatch measures the HTTP batch surface end to end —
// JSON decode, admission, per-item breaker/retry bookkeeping, routing on
// pooled episode state, JSON encode — in queries, not requests: divide
// ns/op by the batch size for the per-query cost.
func BenchmarkServeRouteBatch(b *testing.B) {
	p := girg.DefaultParams(20000)
	p.FixedN = true
	nw, err := core.NewGIRG(p, 5, girg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(serve.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.AddNetwork(serve.DefaultGraph, nw)
	h := srv.Handler()

	giant := graph.GiantComponent(nw.Graph)
	rng := xrand.New(7)
	const batch = 64
	items := make([]serve.BatchItem, batch)
	for i := range items {
		items[i] = serve.BatchItem{S: giant[rng.IntN(len(giant))], T: giant[rng.IntN(len(giant))]}
	}
	body, err := json.Marshal(serve.BatchRouteRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/route/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("batch status = %d", w.Code)
		}
	}
	b.ReportMetric(batch, "queries/req")
}

func BenchmarkPipelineHRGGenerate(b *testing.B) {
	p := hrg.DefaultParams(5000)
	for i := 0; i < b.N; i++ {
		if _, err := hrg.Generate(p, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkExperimentIDs keeps the benchmark list in sync with the
// registry: every registered experiment must have a benchmark above.
func TestBenchmarkExperimentIDs(t *testing.T) {
	covered := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E11": true, "E12": true, "E13": true, "E14": true, "E15": true,
		"E16": true, "E17": true, "F1": true,
	}
	for _, e := range expt.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark in bench_test.go", e.ID)
		}
	}
}
