package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/girg"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Greedy path length scales as (2/|log(beta-2)|) log log n",
		Claim: "Theorem 3.3: a.a.s. greedy routing stops after at most (2+o(1))/|log(beta-2)| * log log n steps.",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Stretch of successful greedy paths approaches 1",
		Claim: "Theorem 3.3 / Section 4: conditional on success, the stretch is 1+o(1).",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "F1",
		Title: "Typical trajectory of a greedy path (Figure 1)",
		Claim: "Section 4/6: the path first climbs to high-weight core vertices (weight phase), then descends toward the target with rising objective (objective phase); each layer is visited at most once.",
		Run:   runF1,
	})
}

func runE4(cfg Config) (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "mean greedy hops (successful routings) vs n and beta",
		Columns: []string{"beta", "n", "lnln n", "mean hops", "median", "p95", "theory 2/|ln(b-2)|*lnln n"},
	}
	baseNs := []int{1000, 3162, 10000, 31623, 100000, 316228}
	betas := []float64{2.3, 2.5, 2.7}
	pairs := cfg.scaled(300, 40)
	seed := cfg.Seed + 300
	for _, beta := range betas {
		var xs, ys []float64
		for _, baseN := range baseNs {
			n := cfg.scaledN(baseN)
			p := girg.DefaultParams(float64(n))
			p.Beta = beta
			p.Lambda = sparseLambda
			p.FixedN = true
			seed++
			nw, err := core.NewGIRG(p, seed, girg.Options{})
			if err != nil {
				return t, err
			}
			rep, err := core.RunMilgramCtx(cfg.Context(), nw, core.MilgramConfig{Pairs: pairs, Seed: seed * 13})
			if err != nil {
				return t, err
			}
			lnln := math.Log(math.Log(float64(n)))
			theory := stats.TheoryHopConstant(beta) * lnln
			t.AddRow(fmtF2(beta), fmtInt(n), fmtF2(lnln), fmtF2(rep.MeanHops),
				fmtF2(stats.Median(rep.Hops)), fmtF2(stats.Quantile(rep.Hops, 0.95)), fmtF2(theory))
			xs = append(xs, lnln)
			ys = append(ys, rep.MeanHops)
		}
		fit := stats.FitLine(xs, ys)
		t.SetMetric("slope_beta_"+fmtF2(beta), fit.Slope)
		t.AddNote("beta=%.2f: hops ~ %.2f * lnln n + %.2f (R^2 %.3f); theory slope 2/|ln(beta-2)| = %.2f",
			beta, fit.Slope, fit.Intercept, fit.R2, stats.TheoryHopConstant(beta))
	}
	return t, nil
}

func runE5(cfg Config) (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "stretch of successful greedy paths (hops / BFS distance)",
		Columns: []string{"n", "success", "mean stretch", "median stretch", "p95 stretch", "share stretch=1"},
	}
	baseNs := []int{3000, 10000, 30000, 100000}
	pairs := cfg.scaled(250, 30)
	seed := cfg.Seed + 400
	var lastMean float64
	for _, baseN := range baseNs {
		n := cfg.scaledN(baseN)
		p := girg.DefaultParams(float64(n))
		p.Lambda = sparseLambda
		p.FixedN = true
		seed++
		nw, err := core.NewGIRG(p, seed, girg.Options{})
		if err != nil {
			return t, err
		}
		rep, err := core.RunMilgramCtx(cfg.Context(), nw, core.MilgramConfig{
			Pairs: pairs, Seed: seed * 7, ComputeStretch: true,
		})
		if err != nil {
			return t, err
		}
		exact := 0
		for _, s := range rep.Stretches {
			if s == 1 {
				exact++
			}
		}
		share := 0.0
		if len(rep.Stretches) > 0 {
			share = float64(exact) / float64(len(rep.Stretches))
		}
		t.AddRow(fmtInt(n), fmtPct(rep.Success.P), fmtF(rep.MeanStretch),
			fmtF(stats.Median(rep.Stretches)), fmtF(stats.Quantile(rep.Stretches, 0.95)), fmtPct(share))
		lastMean = rep.MeanStretch
	}
	t.SetMetric("final_mean_stretch", lastMean)
	t.AddNote("mean stretch at the largest size is %.3f; Theorem 3.3 predicts 1+o(1)", lastMean)
	return t, nil
}

func runF1(cfg Config) (Table, error) {
	t := Table{
		ID:      "F1",
		Title:   "per-hop trajectory of one successful greedy path (low-weight, far-apart s and t)",
		Columns: []string{"hop", "weight", "objective phi", "phase"},
	}
	n := cfg.scaledN(200000)
	p := girg.DefaultParams(float64(n))
	p.FixedN = true
	// Sparse kernel (EP3 still holds with c1 = lambda^{1/alpha}): average
	// degree ~10 keeps the path long enough to expose both phases.
	p.Lambda = 0.02
	planted := []girg.Plant{
		{Pos: []float64{0.1, 0.1}, W: p.WMin},
		{Pos: []float64{0.6, 0.6}, W: p.WMin},
	}
	// gamma(eps1) with a small eps1, the phase boundary of Section 7.3:
	// phase 1 while phi(v) <= w_v^-gamma, phase 2 after.
	gamma := (1 - 0.05) / (p.Beta - 2)
	// Keep the longest successful trajectory over repeated graph draws (at
	// small scales paths are short; at full scale a >= 6-hop path appears
	// within a few attempts).
	var hops []route.MoveEvent
	for attempt := 0; attempt < 50; attempt++ {
		g, err := girg.Generate(p, cfg.Seed+500+uint64(attempt), girg.Options{Planted: planted})
		if err != nil {
			return t, err
		}
		obj := route.NewStandard(g, 1)
		res := route.Greedy(g, obj, 0)
		if res.Success && len(res.Path) > len(hops) {
			hops = route.Moves(g, obj, res, 0)
			if res.Moves >= 6 {
				break
			}
		}
	}
	if hops == nil {
		t.AddNote("no successful low-weight routing found in 50 attempts (increase scale)")
		return t, nil
	}
	maxWHop, maxW := 0, 0.0
	for i, h := range hops {
		phase := "1 (weight climb)"
		if h.Score > math.Pow(h.W, -gamma) {
			phase = "2 (objective climb)"
		}
		if i == len(hops)-1 {
			phase = "target"
		}
		score := fmtScientific(h.Score)
		t.AddRow(fmtInt(i), fmtF2(h.W), score, phase)
		if h.W > maxW && i < len(hops)-1 {
			maxW, maxWHop = h.W, i
		}
	}
	t.SetMetric("hops", float64(len(hops)-1))
	t.SetMetric("peak_weight", maxW)
	t.AddNote("path length %d; weight peaks at hop %d of %d with w = %.1f (the network core), matching Figure 1's two-phase shape",
		len(hops)-1, maxWHop, len(hops)-1, maxW)
	// The trace phase analyzer (obs.Analyze) splits the same trajectory at
	// its max-weight hop; its phase lengths are the machine-readable form of
	// the table above and the invariant the observability tests assert.
	trajectory := make([]obs.Hop, len(hops))
	for i, h := range hops {
		trajectory[i] = obs.Hop{Step: i, W: h.W, Score: h.Score}
	}
	ph := obs.Analyze(trajectory)
	t.SetMetric("weight_phase_hops", float64(ph.WeightHops))
	t.SetMetric("objective_phase_hops", float64(ph.ObjectiveHops))
	t.AddNote("phase analyzer: %d weight-phase hops, %d objective-phase hops (boundary at the max-weight hop); two-phase shape: %v",
		ph.WeightHops, ph.ObjectiveHops, ph.TwoPhase)
	// Objective must increase monotonically (by construction of greedy).
	mono := true
	for i := 1; i < len(hops); i++ {
		if hops[i].Score <= hops[i-1].Score {
			mono = false
		}
	}
	if mono {
		t.AddNote("objective strictly increases along the path (greedy invariant)")
	}
	return t, nil
}

func fmtScientific(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3g", v)
}
