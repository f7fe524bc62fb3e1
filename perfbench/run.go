package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
)

// options are a run's settings: the command line's, plus the graph size and
// set-up count, which only the tests change.
type options struct {
	workload  string
	seed      uint64 // pair and write-stream seed
	graphSeed uint64
	seconds   float64
	trace     bool
	scale     float64 // graph size as a share of n = 20000
	setups    int     // deployments per run; setup_s is their median
	workDir   string
	senders   int
}

// runner drives one workload's deployment.
type runner struct {
	sp   spec
	o    options
	dep  *deployment
	in   inputs
	refs []route.Result
	ring *cluster.Ring

	clients []*http.Client
	order   writeOrder
	nextW   int // first write batch not yet scheduled
	acked   atomic.Int64

	capacity float64 // reads/s the sender pool completed in the max_qps burst

	mismatches atomic.Int64
	firstErr   atomic.Pointer[string]
}

// readOutcome is what one answered read reported.
type readOutcome struct {
	ok      bool
	success bool
	moves   int
	timings serve.Timings
}

// writeOrder serializes write batches: batch k is sent only after batch
// k-1 has been answered, because it may name a vertex k-1 created.
type writeOrder struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func (w *writeOrder) wait(k int) {
	w.mu.Lock()
	for w.next != k {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *writeOrder) done(k int) {
	w.mu.Lock()
	w.next = k + 1
	w.cond.Broadcast()
	w.mu.Unlock()
}

func newRunner(sp spec, o options, dep *deployment, in inputs) *runner {
	r := &runner{sp: sp, o: o, dep: dep, in: in, ring: cluster.NewRing(dep.entries)}
	r.order.cond = sync.NewCond(&r.order.mu)
	for i := 0; i < o.senders; i++ {
		// A sender has at most one request in flight, so at most nproc
		// connections are busy; each keeps one idle connection per entry
		// daemon, so that spreading reads does not re-dial.
		r.clients = append(r.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return r
}

func (r *runner) closeClients() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

func (r *runner) fail(format string, args ...any) {
	r.mismatches.Add(1)
	msg := fmt.Sprintf(format, args...)
	r.firstErr.CompareAndSwap(nil, &msg)
}

// pairOf maps the i-th read of the stream to a pool pair: a pure hash of
// the seed and i, so the stream is the same whatever the phase lengths.
func (r *runner) pairOf(i int) int {
	return int(obs.Hash64(r.o.seed, uint64(i)) % uint64(len(r.in.pairs)))
}

// pairKey keys a pair on the consistent-hash ring of entry daemons.
func pairKey(s, t int) uint64 { return obs.Hash64(uint64(s), uint64(t)) }

// entryFor spreads queries over the entry daemons with the ring.
func (r *runner) entryFor(s, t int) string { return r.ring.Pick(pairKey(s, t)) }

// postRoute sends one POST /route and decodes the answer.
func postRoute(c *http.Client, url string, req serve.RouteRequest) (int, serve.RouteResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, serve.RouteResponse{}, err
	}
	resp, err := c.Post(url+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, serve.RouteResponse{}, err
	}
	defer resp.Body.Close()
	var rr serve.RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return resp.StatusCode, rr, err
	}
	return resp.StatusCode, rr, nil
}

// read runs read i on sender s and checks the answer against the
// reference walk (a graph that writes change has no fixed reference; there
// the answer must only be a route answer).
func (r *runner) read(s, i int, out *readOutcome) bool {
	k := r.pairOf(i)
	pr := r.in.pairs[k]
	status, rr, err := postRoute(r.clients[s], r.entryFor(pr[0], pr[1]), serve.RouteRequest{S: pr[0], T: pr[1]})
	if err != nil || status != http.StatusOK {
		r.fail("read (%d,%d): status %d, err %v", pr[0], pr[1], status, err)
		return false
	}
	if r.sp.writeRate == 0 {
		ref := &r.refs[k]
		if rr.Success != ref.Success || rr.Moves != ref.Moves || rr.Failure != string(ref.Failure) {
			r.fail("read (%d,%d): answer (success=%v moves=%d failure=%q) != reference (success=%v moves=%d failure=%q)",
				pr[0], pr[1], rr.Success, rr.Moves, rr.Failure, ref.Success, ref.Moves, ref.Failure)
			return false
		}
	}
	*out = readOutcome{ok: true, success: rr.Success, moves: rr.Moves}
	if rr.Timings != nil {
		out.timings = *rr.Timings
	}
	return true
}

// write sends batch k, in order, on sender s. Writes go to the one daemon
// of the only workload that writes.
func (r *runner) write(s, k int) bool {
	r.order.wait(k)
	defer r.order.done(k)
	body, err := json.Marshal(serve.MutateRequest{Graph: serve.DefaultGraph, Ops: r.in.writes[k]})
	if err != nil {
		r.fail("write %d: %v", k, err)
		return false
	}
	resp, err := r.clients[s].Post(r.dep.entries[0]+"/admin/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		r.fail("write %d: %v", k, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er) // best effort: the status already fails the write
		r.fail("write %d: status %d (%s)", k, resp.StatusCode, er.Error)
		return false
	}
	r.acked.Add(1)
	return true
}

// phase is one open-loop stretch of traffic and what it measured.
type phase struct {
	samples  []sample
	reads    []readOutcome // by read index within the phase
	elapsed  time.Duration
	cpu      time.Duration
	answered int
	steal    float64 // share of the machine's CPU time the hypervisor took
}

// play runs reads at readRate and writes at writeRate for d.
func (r *runner) play(d time.Duration, readRate, writeRate float64, firstRead int) *phase {
	jobs := schedule(d, readRate, writeRate, firstRead, r.nextW)
	// Never schedule past the generated write stream.
	kept := jobs[:0]
	for _, j := range jobs {
		if !j.write || j.idx < len(r.in.writes) {
			kept = append(kept, j)
		}
	}
	jobs = kept
	ph := &phase{}
	nr := 0
	for _, j := range jobs {
		if j.write {
			r.nextW = max(r.nextW, j.idx+1)
		} else {
			nr++
		}
	}
	ph.reads = make([]readOutcome, nr)
	cpu0, steal0 := cpuTime(), readSteal()
	t0 := time.Now()
	ph.samples = runOpenLoop(jobs, r.o.senders, func(s int, j job) bool {
		if j.write {
			return r.write(s, j.idx)
		}
		return r.read(s, j.idx, &ph.reads[j.idx-firstRead])
	})
	ph.elapsed = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	ph.steal = readSteal().share(steal0)
	for _, o := range ph.reads {
		if o.ok {
			ph.answered++
		}
	}
	return ph
}

// readLatencies returns the phase's read latencies in ms, each from when
// the read was due.
func (ph *phase) readLatencies() []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if !s.write {
			xs = append(xs, ms(s.latency))
		}
	}
	return xs
}

// writeAcks returns the phase's write acknowledgement times in ms, each
// from when the batch was sent. A write that waited for a sender queued
// behind reads in the generator's own pool; a real writer is a client of
// its own.
func (ph *phase) writeAcks() []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if s.write {
			xs = append(xs, ms(s.latency-s.wait))
		}
	}
	return xs
}

func (ph *phase) lateness() []float64 {
	xs := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		xs[i] = ms(s.late)
	}
	return xs
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSample is the machine's CPU time so far from /proc/stat, in ticks:
// all of it, and the part stolen by the hypervisor. On a shared virtual
// machine, steal explains a slow run.
type stealSample struct{ steal, total float64 }

func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st stealSample
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64) // a malformed field reads as 0
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func (b stealSample) share(a stealSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// references walks every pool pair with route.GreedyCSR, the oracle every
// answer is checked against.
func references(g *graph.Graph, pairs [][2]int) []route.Result {
	refs := make([]route.Result, len(pairs))
	var sc route.Scratch
	var out route.Result
	for i, pr := range pairs {
		route.GreedyCSR(g, pr[1], pr[0], route.Budget{MaxScans: 1 << 20}, &sc, &out)
		out.CopyInto(&refs[i])
	}
	return refs
}

// checkPaths sends a fixed sample of pool pairs with include_path and
// requires the returned path to equal the reference vertex for vertex. On
// a sharded layout this proves stitched paths equal single-node paths.
func (r *runner) checkPaths(n int) {
	for k := 0; k < n && k < len(r.in.pairs); k++ {
		pr := r.in.pairs[k]
		status, rr, err := postRoute(r.clients[0], r.entryFor(pr[0], pr[1]),
			serve.RouteRequest{S: pr[0], T: pr[1], IncludePath: true})
		if err != nil || status != http.StatusOK {
			r.fail("path check (%d,%d): status %d, err %v", pr[0], pr[1], status, err)
			continue
		}
		if !equalInts(rr.Path, r.refs[k].Path) {
			r.fail("path check (%d,%d): path %v != reference %v", pr[0], pr[1], rr.Path, r.refs[k].Path)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkReplay replays the acknowledged write batches into a fresh mutation
// log over a fresh copy of the snapshot and requires the live fingerprint
// the daemon reports on /readyz.
func (r *runner) checkReplay() {
	acked := int(r.acked.Load())
	dir, err := os.MkdirTemp(r.dep.dir, "replay-*")
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	base, err := graphio.ReadFile(filepath.Join(r.dep.dir, "graph.girgb"))
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	log, err := mutate.Open(dir, base, mutate.Config{})
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	defer log.Close()
	for k := 0; k < acked; k++ {
		if _, err := log.Apply(r.in.writes[k]); err != nil {
			r.fail("replay batch %d: %v", k, err)
			return
		}
	}
	want := fmt.Sprintf("%016x", log.Fingerprint())
	resp, err := http.Get(r.dep.entries[0] + "/readyz")
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	defer resp.Body.Close()
	var ready serve.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		r.fail("replay: /readyz: %v", err)
		return
	}
	g, ok := ready.Graphs[serve.DefaultGraph]
	if !ok || g.Live == nil {
		r.fail("replay: the daemon reports no live graph")
		return
	}
	if g.Live.Fingerprint != want {
		r.fail("replay: daemon live fingerprint %s != replayed %s after %d batches", g.Live.Fingerprint, want, acked)
	}
}

// searchMaxQPS finds the highest offered read rate whose p99 stays under
// the workload's limit with no growing backlog, or 0 when the fixed rate
// already misses it. A burst of reads all due at once measures the
// capacity of the sender pool; then five geometric bisections between the
// fixed rate and that capacity narrow the limit to a few percent. A rate
// fails only when two steps at it fail, so one stall of the machine does
// not end the search low. It returns the read throughput achieved at the
// highest passing rate.
func (r *runner) searchMaxQPS(budget time.Duration, fixed *phase, firstRead *int, writeRate float64, all *[]*phase) float64 {
	const bisections = 5
	// Room for the burst, every bisection and a few retries.
	stepDur := budget / (bisections + 4)
	run := func(d time.Duration, rate float64) *phase {
		ph := r.play(d, rate, writeRate, *firstRead)
		*firstRead += len(ph.reads)
		*all = append(*all, ph)
		return ph
	}
	pass := func(ph *phase) bool {
		p99, err := chunkedP99(ph.readLatencies())
		if err != nil || ph.failed() > 0 || p99 > ms(r.sp.p99Limit) {
			return false
		}
		// A growing backlog shows as a late tail of the schedule.
		var last []float64
		for _, s := range ph.samples[len(ph.samples)-len(ph.samples)/10:] {
			if !s.write {
				last = append(last, ms(s.latency))
			}
		}
		return median(last) <= ms(r.sp.p99Limit)
	}
	if !pass(fixed) {
		return 0 // no rate tested meets the limit
	}
	best := float64(fixed.answered) / fixed.elapsed.Seconds()
	// The burst is sized to keep the pool busy for about a step.
	n := 3 * r.sp.readRate * stepDur.Seconds()
	burst := run(time.Millisecond, 1000*n)
	r.capacity = float64(burst.answered) / burst.elapsed.Seconds()
	progress("  capacity %.0f/s", r.capacity)
	lo, hi := r.sp.readRate, r.capacity
	for i := 0; i < bisections && hi > lo; i++ {
		rate := math.Sqrt(lo * hi)
		// A p99 needs 1000 samples; low rates get longer steps.
		d := max(stepDur, time.Duration(1050/rate*float64(time.Second)))
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			ph := run(d, rate)
			if ok = pass(ph); ok {
				best = float64(ph.answered) / d.Seconds()
			}
		}
		progress("  step %.0f/s for %v: pass %v", rate, d, ok)
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	return best
}

// heapBytes is the live heap after a forced collection.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// setUp deploys the workload o.setups times, keeping the last deployment,
// and reports the median set-up time and the live heap the kept daemons
// hold.
func setUp(sp spec, o options) (dep *deployment, setupS float64, heapMB float64, err error) {
	heap0 := heapBytes()
	var times []time.Duration
	for k := 0; k < o.setups; k++ {
		if dep != nil {
			dep.close()
			dep = nil
		}
		// Collect the previous deployment's garbage outside the timing, so
		// every set-up starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		dep, err = deploy(sp, girgParams(sp, o.scale), o.graphSeed, o.workDir)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0))
	}
	heapMB = float64(int64(heapBytes())-int64(heap0)) / (1 << 20)
	return dep, medianSeconds(times), heapMB, nil
}

// servedGraph is the base graph the first daemon routes on.
func servedGraph(dep *deployment) *graph.Graph {
	nw, _ := dep.daemons[0].srv.Network(serve.DefaultGraph)
	return nw.Graph
}

// durations splits a run's measuring time between the fixed-rate phase and
// the max_qps search.
func durations(seconds float64) (fixed, search time.Duration) {
	s := time.Duration(seconds * float64(time.Second))
	return s * 3 / 5, s * 2 / 5
}

// runEndToEnd is the untraced run: every end-to-end metric of sp.
func runEndToEnd(sp spec, o options) (*report, error) {
	dep, setupS, heapMB, err := setUp(sp, o)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	g := servedGraph(dep)
	fixed, search := durations(o.seconds)
	// The writes run through the max_qps search too, whose steps may run
	// longer than planned to collect enough samples: generate twice the
	// planned stream.
	in := makeInputs(g, o.seed, int(2*sp.writeRate*(fixed+search).Seconds()))
	r := newRunner(sp, o, dep, in)
	defer r.closeClients()
	r.refs = references(g, in.pairs)
	r.checkPaths(64)
	progress("set up in %.2fs (median of %d), heap %.1f MiB; references ready", setupS, o.setups, heapMB)

	var phases []*phase
	firstRead := 0
	fx := r.play(fixed, sp.readRate, sp.writeRate, firstRead)
	firstRead += len(fx.reads)
	phases = append(phases, fx)
	progress("fixed rate done: %d reads", len(fx.reads))
	maxQPS := r.searchMaxQPS(search, fx, &firstRead, sp.writeRate, &phases)
	progress("max_qps search done: %.0f/s after %d steps", maxQPS, len(phases)-1)
	if sp.writeRate > 0 {
		r.checkReplay()
	}

	rep := newReport()
	for _, ph := range phases {
		rep.attempted += int64(len(ph.samples))
		rep.failed += int64(ph.failed())
	}
	lat := fx.readLatencies()
	p50 := median(append([]float64(nil), lat...))
	p99, err := chunkedP99(lat)
	if err != nil {
		return nil, fmt.Errorf("fixed-rate reads: %w", err)
	}
	late, err := percentile(fx.lateness(), 0.99)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	if late > ms(sp.p99Limit) {
		return nil, fmt.Errorf("invalid run: the generator woke %.2f ms late at p99, past the %.0f ms p99 limit", late, ms(sp.p99Limit))
	}
	delivered, answered, moves := 0, 0, 0
	for _, ph := range phases {
		for _, o := range ph.reads {
			if o.ok {
				answered++
				if o.success {
					delivered++
					moves += o.moves
				}
			}
		}
	}
	if answered == 0 || delivered == 0 {
		return nil, fmt.Errorf("no read was answered and delivered")
	}
	hops := float64(moves) / float64(delivered)
	if bound := hopBound(sp.beta, g.N()); hops > bound {
		r.fail("hops_mean %.3f exceeds the Theorem 3.3 bound %.3f", hops, bound)
	}
	rep.correct = r.mismatches.Load() == 0
	if msg := r.firstErr.Load(); msg != nil {
		rep.note = fmt.Sprintf("%d mismatches; first: %s", r.mismatches.Load(), *msg)
	}
	rep.set("setup_s", setupS, "s")
	rep.setUngated("p50_ms", p50, "ms", "lower")
	rep.setUngated("p99_ms", p99, "ms", "lower")
	rep.setUngated("max_qps", maxQPS, "1/s", "higher")
	rep.set("cpu_us_per_query", us(fx.cpu)/float64(fx.answered), "us")
	rep.set("success_ratio", float64(delivered)/float64(answered), "ratio")
	rep.set("hops_mean", hops, "count")
	rep.set("heap_mb", heapMB, "MiB")
	rep.info["read_samples"] = float64(len(lat))
	if sp.writeRate > 0 {
		wlat := fx.writeAcks()
		wp99, err := chunkedP99(wlat)
		if err != nil {
			return nil, fmt.Errorf("writes: %w", err)
		}
		rep.setUngated("write_p50_ms", median(wlat), "ms", "lower")
		rep.setUngated("write_p99_ms", wp99, "ms", "lower")
		rep.info["write_samples"] = float64(len(wlat))
	}
	rep.info["gen_late_p99_ms"] = late
	rep.info["steal_share"] = fx.steal
	rep.info["capacity_qps"] = r.capacity
	rep.info["hop_bound"] = hopBound(sp.beta, g.N())
	rep.info["fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}
