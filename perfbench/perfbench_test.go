package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: percentile must sort
		}
		return v
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	got, err := percentile(xs(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got, err := percentile(xs(20), 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

// TestDueTimeChargesStall injects a stall into the first job and checks
// that the jobs due during it are charged the wait, from their due time.
func TestDueTimeChargesStall(t *testing.T) {
	const step = 10 * time.Millisecond
	const stall = 80 * time.Millisecond
	var jobs []job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, job{due: time.Duration(i) * step, idx: i})
	}
	samples := runOpenLoop(jobs, 1, func(_ int, j job) bool {
		if j.idx == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("job %d not run", s.idx)
		}
		// Job i waited behind the stall until it ended at ~stall.
		if wait := stall - s.due; wait > 0 && s.latency < wait {
			t.Errorf("job %d due at %v: latency %v, want at least the %v it queued behind the stall",
				s.idx, s.due, s.latency, wait)
		}
	}
	if last := samples[len(samples)-1]; last.latency > stall/2 {
		t.Errorf("job due after the stall drained: latency %v, want well under %v", last.latency, stall/2)
	}
}

func TestScheduleMergesStreams(t *testing.T) {
	jobs := schedule(time.Second, 10, 4, 100, 7)
	reads, writes := 0, 0
	for i, j := range jobs {
		if i > 0 && j.due < jobs[i-1].due {
			t.Fatalf("job %d due %v before job %d at %v", i, j.due, i-1, jobs[i-1].due)
		}
		if j.write {
			if j.idx != 7+writes {
				t.Fatalf("write %d has index %d", writes, j.idx)
			}
			writes++
		} else {
			if j.idx != 100+reads {
				t.Fatalf("read %d has index %d", reads, j.idx)
			}
			reads++
		}
	}
	if reads != 10 || writes != 4 {
		t.Fatalf("got %d reads and %d writes, want 10 and 4", reads, writes)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: &bound}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name string
		ms   metricSpec
		next []float64
		want string
	}{
		{"faster", lower, scaled(0.8), "better"},
		{"slower beyond bound", lower, scaled(1.3), "worse"},
		{"slower within bound", lower, scaled(1.05), "same"},
		{"wide spread", lower, []float64{5, 15, 8, 14, 6, 16, 7, 13, 10, 12}, "unresolved"},
		{"higher is better", metricSpec{Name: "max_qps", Better: "higher", Bound: &bound}, scaled(0.8), "worse"},
		{"no bound", metricSpec{Name: "route.walk_us", Better: "lower"}, scaled(1.3), "no-bound"},
	}
	for _, c := range cases {
		if got := judge(c.ms, base, c.next).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// benchMetrics reads the metric names and units BENCHMARK.json promises.
func benchMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload untraced and traced on a graph a tenth the
// size, at rates high enough to collect a p99 in a short run, and checks
// that the answers pass the output check and every metric BENCHMARK.json
// names is reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys daemons")
	}
	endToEnd, perLayer := benchMetrics(t)
	for _, name := range []string{"hub", "sharded", "churn"} {
		for _, traced := range []bool{false, true} {
			sp := specs[name]
			sp.readRate = 500
			o := options{workload: name, seed: 7, graphSeed: 5, seconds: 4, trace: traced,
				scale: 0.1, setups: 1, workDir: t.TempDir(), senders: 2}
			if sp.writeRate > 0 {
				// Every write waits for an fsync: a slower stream over a
				// longer run collects the 1000 acknowledgements a p99 needs.
				sp.writeRate, o.seconds = 200, 9
			}
			run, want := runEndToEnd, endToEnd
			if traced {
				run, want = runTraced, perLayer
			}
			rep, err := run(sp, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					name, traced, rep.correct, rep.attempted, rep.failed, rep.note)
			}
			for m, unit := range want {
				got, ok := rep.metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m, got, unit)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", name, traced, len(rep.metrics), len(want))
			}
			if !traced {
				ungated := []string{"p50_ms", "p99_ms", "max_qps"}
				if sp.writeRate > 0 {
					ungated = append(ungated, "write_p50_ms", "write_p99_ms")
				}
				for _, m := range ungated {
					if got, ok := rep.ungated[m]; !ok || got.Value <= 0 {
						t.Errorf("%s: ungated metric %s = %+v, want a positive value", name, m, got)
					}
				}
			}
		}
	}
}
