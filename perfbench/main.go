// Command perfbench is the repository's routing benchmark. It deploys a
// workload's routing daemons inside its own process on loopback listeners,
// drives them with an open-loop load generator and prints every metric by
// name with its unit. Wrong answers fail the run.
//
//	perfbench --workload hub --seed 7 --seconds 20 --trace 0
//	perfbench compare [--bench BENCHMARK.json] BASE NEW
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number. Better is set on ungated metrics only,
// whose direction BENCHMARK.json does not record.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric // the gated metrics BENCHMARK.json lists
	ungated           map[string]metric // measured, but too machine-bound to gate
	info              map[string]float64
	note              string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, ungated: map[string]metric{}, info: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) setUngated(name string, v float64, unit, better string) {
	r.ungated[name] = metric{Value: v, Unit: unit, Better: better}
}

// meta identifies the machine, toolchain, source and inputs of a run.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	GraphSeed  uint64  `json:"graph_seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
}

// record is the full result line written before the summary line; compare
// mode reads these.
type record struct {
	Meta      meta               `json:"meta"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Ungated   map[string]metric  `json:"ungated,omitempty"`
	Info      map[string]float64 `json:"info,omitempty"`
	Note      string             `json:"note,omitempty"`
}

func runMain(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fset.StringVar(&o.workload, "workload", "hub", "workload: hub, sharded or churn")
	fset.Uint64Var(&o.seed, "seed", 7, "seed of the read pairs and the write stream")
	fset.Float64Var(&o.seconds, "seconds", 20, "measuring time of one run, in seconds")
	fset.IntVar(&trace, "trace", 0, "1 replays the queries through the layer ladder and prints per-layer metrics")
	fset.StringVar(&o.workDir, "out", ".bench_build", "directory for snapshots, journals and traces")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// The served graph is always the one of the routing benchmarks.
	o.graphSeed, o.scale, o.setups = 5, 1, 5
	sp, err := specByName(o.workload)
	if err != nil {
		return err
	}
	o.senders = runtime.NumCPU()
	runtime.GOMAXPROCS(o.senders)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	var rep *report
	if o.trace {
		rep, err = runTraced(sp, o)
	} else {
		rep, err = runEndToEnd(sp, o)
	}
	if err != nil {
		return err
	}
	return emit(out, o, rep)
}

// emit prints the full record, then the summary line, last.
func emit(out io.Writer, o options, rep *report) error {
	rec := record{Meta: machineMeta(o), Correct: rep.correct, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: rep.metrics, Ungated: rep.ungated, Info: rep.info, Note: rep.note}
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n%s\n", line, summary); err != nil {
		return err
	}
	if !rep.correct {
		return fmt.Errorf("output check failed: %s", rep.note)
	}
	return nil
}

func machineMeta(o options) meta {
	return meta{
		Workload: o.workload, Seed: o.seed, GraphSeed: o.graphSeed, Seconds: o.seconds,
		Trace: o.trace, CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit("."), Source: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the checkout at root without running git;
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if h, name, ok := strings.Cut(l, " "); ok && name == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout, so
// results taken outside a git checkout still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var started = time.Now()

// progress logs a timestamped line to standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}
