package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare mode reads.
type benchFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var errNoRecords = errors.New("no result records")

// series is one metric's values across runs, in run order.
type series map[string]map[string][]float64 // workload -> metric -> values

// results are the records of one set of runs.
type results struct {
	values  series
	ungated map[string]metricSpec // direction and unit of ungated metrics
}

func compareMain(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [--bench BENCHMARK.json] BASE NEW (files or directories of run output)")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := loadRecords(fset.Arg(0))
	if err != nil {
		return err
	}
	next, err := loadRecords(fset.Arg(1))
	if err != nil {
		return err
	}
	return compare(out, bf, base, next)
}

// loadRecords reads every result record from a file, or from every file
// of a directory, in name order.
func loadRecords(path string) (results, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return results{}, err
	} else if st.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return results{}, err
		}
		files = files[:0]
		for _, e := range ents {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	res := results{values: series{}, ungated: map[string]metricSpec{}}
	s := res.values
	n := 0
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return results{}, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if !strings.HasPrefix(string(line), `{"record":`) {
				continue
			}
			var wrap struct {
				Record record `json:"record"`
			}
			if err := json.Unmarshal(line, &wrap); err != nil {
				fh.Close()
				return results{}, fmt.Errorf("%s: %w", f, err)
			}
			w := wrap.Record.Meta.Workload
			if s[w] == nil {
				s[w] = map[string][]float64{}
			}
			for name, m := range wrap.Record.Metrics {
				s[w][name] = append(s[w][name], m.Value)
			}
			for name, m := range wrap.Record.Ungated {
				s[w][name] = append(s[w][name], m.Value)
				res.ungated[name] = metricSpec{Name: name, Unit: m.Unit, Better: m.Better}
			}
			n++
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return results{}, fmt.Errorf("%s: %w", f, err)
		}
	}
	if n == 0 {
		return results{}, fmt.Errorf("%s: %w", path, errNoRecords)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// as Python's statistics.quantiles(xs, n=4) computes them (its default
// 'exclusive' method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	at := func(p float64) float64 {
		if len(c) == 1 {
			return c[0]
		}
		// Position p·(n+1), 1-based, interpolated.
		pos := p * float64(len(c)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return c[0]
		}
		if lo >= len(c) {
			return c[len(c)-1]
		}
		return c[lo-1] + (pos-float64(lo))*(c[lo]-c[lo-1])
	}
	return at(0.25), median(c), at(0.75)
}

// row is one workload × metric comparison.
type row struct {
	workload, metric, unit string
	base, next             [3]float64 // q1, median, q3
	won                    float64    // share of run pairs the new side won
	verdict                string
}

// verdict judges one metric: "better" when the new side wins at least nine
// tenths of the run pairs and the medians differ by more than the base's
// quartile spread; "unresolved" when either side's spread is wider than
// the bound (unless every new run beats every base run); "worse" when the
// new median is worse by more than the bound; "same" otherwise. Metrics
// without a bound get "better" or "no-bound".
func judge(ms metricSpec, base, next []float64) row {
	r := row{metric: ms.Name, unit: ms.Unit}
	r.base[0], r.base[1], r.base[2] = quartiles(base)
	r.next[0], r.next[1], r.next[2] = quartiles(next)
	lower := ms.Better == "lower"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pairs, wins := min(len(base), len(next)), 0
	for i := 0; i < pairs; i++ {
		if better(next[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 {
		r.won = float64(wins) / float64(pairs)
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if !better(n, b) {
				allBetter = false
			}
		}
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return math.Abs(q[2]-q[0]) / math.Abs(q[1])
	}
	diff := r.next[1] - r.base[1]
	switch {
	case pairs > 0 && r.won >= 0.9 && better(r.next[1], r.base[1]) && math.Abs(diff) > r.base[2]-r.base[0]:
		r.verdict = "better"
	case ms.Bound == nil:
		r.verdict = "no-bound"
	case (spread(r.base) > *ms.Bound || spread(r.next) > *ms.Bound) && !allBetter:
		r.verdict = "unresolved"
	case r.base[1] != 0 && better(r.base[1], r.next[1]) && math.Abs(diff)/math.Abs(r.base[1]) > *ms.Bound:
		r.verdict = "worse"
	default:
		r.verdict = "same"
	}
	return r
}

func compare(out io.Writer, bf benchFile, baseRes, nextRes results) error {
	specsByName := map[string]metricSpec{}
	var order, extra []string
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		specsByName[m.Name] = m
		order = append(order, m.Name)
	}
	for _, res := range []results{baseRes, nextRes} {
		for name, m := range res.ungated {
			if _, ok := specsByName[name]; !ok {
				specsByName[name] = m
				extra = append(extra, name)
			}
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)
	base, next := baseRes.values, nextRes.values
	var workloads []string
	for w := range base {
		if next[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("the two result sets share no workload")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\twon\tverdict")
	for _, w := range workloads {
		for _, name := range order {
			b, n := base[w][name], next[w][name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			r := judge(specsByName[name], b, n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.0f%%\t%s\n",
				w, name, r.unit, r.base[1], r.base[0], r.base[2], r.next[1], r.next[0], r.next[2], 100*r.won, r.verdict)
		}
	}
	return tw.Flush()
}
