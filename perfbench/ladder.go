package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/mutate"
	"repro/internal/route"
	"repro/internal/serve"
)

// The ladder replays one fixed query set through every layer of the
// routing stack, each rung a call into one module's public entry point:
//
//	L0 torus.Space.DistPow over the (neighbour, target) pairs a walk scores
//	L1 route.GreedyCSR
//	L2 (*core.Network).RouteEpisodeInto
//	L3 serve.Server.Handler().ServeHTTP into an httptest recorder
//	L4 POST /route to one loopback daemon
//	L5 POST /route to an entry daemon of a 3-shard cluster
//	L6 POST /route to an entry daemon of a 3-shard × 2-replica cluster
//
// Each rung does the work of the one below plus its own, so a rung's self
// time is its time minus the rung below.
var rungNames = [...]string{"L0.torus", "L1.route", "L2.core", "L3.serve", "L4.loopback", "L5.cluster", "L6.replicated"}

const nRungs = len(rungNames)

// ladderQueries is how many pool pairs the ladder replays.
const ladderQueries = 128

// span is one timed call of the traced replay. Spans of one query share
// its trace id; each rung's parent is the rung above it.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ladder is the deployment the replay runs against, all over one graph.
type ladder struct {
	g       *graph.Graph
	nw      *core.Network
	handler http.Handler
	single  *daemon
	shard3  []*daemon // one daemon per shard
	shard6  []*daemon // shard i's replicas are shard6[2i] and shard6[2i+1]
	ring3   *cluster.Ring
	shardOf map[string]int // shard index of each shard3 URL
	client  *http.Client
}

// startCluster serves nw from one daemon per (shard, replica), shard by
// shard, with full static membership.
func startCluster(nw *core.Network, shards []string, replicas int, hedge time.Duration) ([]*daemon, error) {
	var ds []*daemon
	for _, sh := range shards {
		for r := 0; r < replicas; r++ {
			d, err := newDaemon(nw, sh, r, hedge)
			if d != nil {
				ds = append(ds, d)
			}
			if err != nil {
				return ds, err
			}
		}
	}
	return ds, joinMembers(ds)
}

// entries picks a query's L5 and L6 entry daemons. The ring picks a shard;
// L6 enters at one of that shard's two replicas, so both rungs forward
// across the same shards and L6 adds only what replication costs.
func (l *ladder) entries(s, t int) (l5, l6 string) {
	key := pairKey(s, t)
	i := l.shardOf[l.ring3.Pick(key)]
	return l.shard3[i].url, l.shard6[2*i+int(key%2)].url
}

func newLadder(g *graph.Graph) (*ladder, error) {
	l := &ladder{g: g, nw: newNetwork(g), client: &http.Client{Timeout: 30 * time.Second}}
	var err error
	if l.single, err = newDaemon(l.nw, "", 0, 0); err != nil {
		return l, err
	}
	l.handler = l.single.srv.Handler()
	if err := waitReady(l.single.url); err != nil {
		return l, err
	}
	if l.shard3, err = startCluster(l.nw, specs["sharded"].shards, 1, 0); err != nil {
		return l, err
	}
	l.shardOf = map[string]int{}
	var urls []string
	for i, d := range l.shard3 {
		l.shardOf[d.url] = i
		urls = append(urls, d.url)
	}
	l.ring3 = cluster.NewRing(urls)
	l.shard6, err = startCluster(l.nw, specs["sharded"].shards, 2, specs["sharded"].hedge)
	return l, err
}

func (l *ladder) close() {
	if l.single != nil {
		l.single.close()
	}
	for _, d := range append(l.shard3, l.shard6...) {
		d.close()
	}
	l.client.CloseIdleConnections()
}

// sink keeps the L0 kernel loop from being optimized away.
var sink float64

// scored lists the vertices whose score a greedy walk along ref's path
// computes — each scanned vertex and its neighbours, the target excepted —
// and counts the neighbour scans.
func scored(g *graph.Graph, ref *route.Result, t int, stamp []int, epoch int, buf []int32) ([]int32, int) {
	buf = buf[:0]
	scans := 0
	scanned := ref.Path
	if ref.Success {
		scanned = scanned[:len(scanned)-1]
	}
	add := func(u int32) {
		if int(u) != t && stamp[u] != epoch {
			stamp[u] = epoch
			buf = append(buf, u)
		}
	}
	for _, v := range scanned {
		nb := g.Neighbors(v)
		scans += len(nb)
		for _, u := range nb {
			add(u)
		}
		add(int32(v))
	}
	return buf, scans
}

// replay is one pass of the ladder over the query set.
type replay struct {
	dur       [nRungs]time.Duration // per-query minimum over the repeats, summed
	calls     int                   // L0 DistPow calls
	scans     int
	forwards  int
	hedges    int
	failovers int
	spans     []span
	wall      time.Duration
}

// ladderRepeats is how often each query runs through the ladder in a
// pass. Adjacent rungs differ by a few microseconds of plumbing, less than
// the scheduling noise of one call, so each rung keeps its fastest repeat.
// Repeats alternate between climbing and descending the ladder, so every
// rung once follows each neighbour and finds the walk's data in cache.
const ladderRepeats = 6

// run replays pairs (with their reference walks) through every rung,
// recording spans when traced. Every answer must equal the reference.
func (l *ladder) run(pairs [][2]int, refs []route.Result, traced bool, fail func(string, ...any)) *replay {
	rp := &replay{}
	var (
		sc    route.Scratch
		out   route.Result
		buf   []int32
		stamp = make([]int, l.g.N())
	)
	pos := l.g.Positions()
	space := pos.Space()
	check := func(rung string, q int, success bool, moves int, failure string) {
		ref := &refs[q]
		if success != ref.Success || moves != ref.Moves || failure != string(ref.Failure) {
			fail("%s pair %v: answer (success=%v moves=%d failure=%q) != reference (success=%v moves=%d failure=%q)",
				rung, pairs[q], success, moves, failure, ref.Success, ref.Moves, ref.Failure)
		}
	}
	post := func(rung string, q int, url string) serve.RouteResponse {
		s, t := pairs[q][0], pairs[q][1]
		status, rr, err := postRoute(l.client, url, serve.RouteRequest{S: s, T: t})
		if err != nil || status != http.StatusOK {
			fail("%s pair %v: status %d, err %v", rung, pairs[q], status, err)
		}
		check(rung, q, rr.Success, rr.Moves, rr.Failure)
		return rr
	}
	start := time.Now()
	for q, pr := range pairs {
		s, t := pr[0], pr[1]
		list, scans := scored(l.g, &refs[q], t, stamp, q+1, buf)
		buf = list
		xt := pos.At(t)
		body, _ := json.Marshal(serve.RouteRequest{S: s, T: t}) // cannot fail: ints only
		var l6 serve.RouteResponse
		url5, url6 := l.entries(s, t)
		rungs := [nRungs]func(){
			func() {
				acc := 0.0
				for _, u := range list {
					acc += space.DistPow(pos.At(int(u)), xt)
				}
				sink += acc
			},
			func() {
				route.GreedyCSR(l.g, t, s, route.Budget{MaxScans: 1 << 20}, &sc, &out)
				check("L1", q, out.Success, out.Moves, string(out.Failure))
			},
			func() {
				if err := l.nw.RouteEpisodeInto(core.EpisodeConfig{S: s, T: t, MaxHops: 1 << 20}, &sc, &out); err != nil {
					fail("L2 pair %v: %v", pr, err)
				}
				check("L2", q, out.Success, out.Moves, string(out.Failure))
			},
			func() {
				rec := httptest.NewRecorder()
				l.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader(body)))
				var rr serve.RouteResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rec.Code != http.StatusOK {
					fail("L3 pair %v: status %d, err %v", pr, rec.Code, err)
				}
				check("L3", q, rr.Success, rr.Moves, rr.Failure)
			},
			func() { post("L4", q, l.single.url) },
			func() { post("L5", q, url5) },
			func() { l6 = post("L6", q, url6) },
		}
		rp.calls += len(list)
		rp.scans += scans
		var best [nRungs]time.Duration
		for rep := 0; rep < ladderRepeats; rep++ {
			for i := range rungs {
				k := i
				if rep%2 == 1 {
					k = nRungs - 1 - i
				}
				t0 := time.Now()
				rungs[k]()
				t1 := time.Now()
				if d := t1.Sub(t0); rep == 0 || d < best[k] {
					best[k] = d
				}
				if traced {
					id := (q*ladderRepeats+rep)*nRungs + k + 1
					parent := 0
					if k+1 < nRungs {
						parent = id + 1
					}
					rp.spans = append(rp.spans, span{Trace: q + 1, ID: id, Parent: parent, Name: rungNames[k],
						Start: t0.Sub(start).Nanoseconds(), End: t1.Sub(start).Nanoseconds()})
				}
			}
			rp.forwards += l6.Forwards
			rp.hedges += l6.Hedges
			rp.failovers += l6.Failovers
		}
		for k := range best {
			rp.dur[k] += best[k]
		}
	}
	rp.wall = time.Since(start)
	return rp
}

// allocsPerWalk counts heap allocations per route.GreedyCSR call.
func allocsPerWalk(g *graph.Graph, pairs [][2]int) float64 {
	var sc route.Scratch
	var out route.Result
	walk := func() {
		for _, pr := range pairs {
			route.GreedyCSR(g, pr[1], pr[0], route.Budget{MaxScans: 1 << 20}, &sc, &out)
		}
	}
	walk() // grow the scratch and path buffers first
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	walk()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(pairs))
}

// applyBatches is how many write batches the mutate layer applies on every
// workload: enough for a p99 with ten samples beyond it.
const applyBatches = 1200

// mutateLayer applies the write stream to a fresh mutation log over a
// fresh copy of the snapshot, timing each Log.Apply, then walks the pairs
// over the resulting live overlay.
func mutateLayer(snap, dir string, writes [][]mutate.Op, pairs [][2]int, rep *report) error {
	base, err := graphio.ReadFile(snap)
	if err != nil {
		return err
	}
	jdir, err := os.MkdirTemp(dir, "apply-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	log, err := mutate.Open(jdir, base, mutate.Config{})
	if err != nil {
		return err
	}
	defer log.Close()
	lat := make([]float64, 0, len(writes))
	for k, ops := range writes {
		t0 := time.Now()
		if _, err := log.Apply(ops); err != nil {
			return fmt.Errorf("apply batch %d: %w", k, err)
		}
		lat = append(lat, us(time.Since(t0)))
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return err
	}
	rep.set("mutate.apply_us_p50", median(lat), "us")
	rep.set("mutate.apply_us_p99", p99, "us")
	rep.set("mutate.ops_rejected", float64(log.Stats().Rejected), "count")

	ov := log.Overlay()
	var sc route.Scratch
	var out route.Result
	t0 := time.Now()
	for _, pr := range pairs {
		route.GreedyCSROverlay(ov, pr[1], pr[0], route.Budget{MaxScans: 1 << 20}, &sc, &out)
	}
	rep.set("graph.overlay_walk_us", us(time.Since(t0))/float64(len(pairs)), "us")
	rep.set("graph.overlay_dirty_vertices", float64(ov.DirtyVertices()), "count")
	return nil
}

// runtimeSample reads the Go runtime counters the traced run reports.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	pauses               *metrics.Float64Histogram
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSample{allocBytes: ss[0].Value.Uint64(), gcCycles: ss[1].Value.Uint64(), pauses: ss[2].Value.Float64Histogram()}
}

// pauseP99 is the p99 GC pause between two samples, in µs, from the
// histogram's bucket upper bounds; 0 without pauses.
func pauseP99(a, b runtimeSample) float64 {
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			// The last bucket is unbounded above; report its lower edge.
			if up := b.pauses.Buckets[i+1]; !math.IsInf(up, 1) {
				return up * 1e6
			}
			return b.pauses.Buckets[i] * 1e6
		}
	}
	return 0
}

// runTraced is the traced run: the per-layer metrics of sp.
func runTraced(sp spec, o options) (*report, error) {
	rep := newReport()
	dep, err := deploy(sp, girgParams(sp, o.scale), o.graphSeed, o.workDir)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	rep.set("girg.generate_s", dep.generate.Seconds(), "s")
	rep.set("graphio.load_s", dep.load.Seconds()/float64(dep.loads), "s")
	rep.set("cluster.join_s", dep.join.Seconds(), "s")

	g := servedGraph(dep)
	fixed, _ := durations(o.seconds)
	in := makeInputs(g, o.seed, max(applyBatches, int(sp.writeRate*fixed.Seconds())))
	r := newRunner(sp, o, dep, in)
	defer r.closeClients()
	r.refs = references(g, in.pairs)

	// Load at the fixed rate: where the daemons' time goes, and what the Go
	// runtime and the generator did meanwhile.
	rt0 := readRuntime()
	ph := r.play(fixed, sp.readRate, sp.writeRate, 0)
	rt1 := readRuntime()
	rep.attempted += int64(len(ph.samples))
	rep.failed += int64(ph.failed())
	var queue, routeT, fwd []float64
	for _, rd := range ph.reads {
		if rd.ok {
			queue = append(queue, float64(rd.timings.QueueUs))
			routeT = append(routeT, float64(rd.timings.RouteUs))
			fwd = append(fwd, float64(rd.timings.ForwardUs))
		}
	}
	q99, err := percentile(queue, 0.99)
	if err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	late, err := percentile(ph.lateness(), 0.99)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	rep.set("serve.queue_us_p99", q99, "us")
	rep.set("serve.route_us_p50", median(routeT), "us")
	rep.set("serve.forward_us_p50", median(fwd), "us")
	rep.set("gen.late_p99_ms", late, "ms")
	rep.info["steal_share"] = ph.steal
	nq := float64(ph.answered)
	rep.set("go.alloc_bytes_per_query", float64(rt1.allocBytes-rt0.allocBytes)/nq, "B")
	rep.set("go.gc_cycles_per_kq", 1000*float64(rt1.gcCycles-rt0.gcCycles)/nq, "count")
	rep.set("go.gc_pause_p99_us", pauseP99(rt0, rt1), "us")
	snap := filepath.Join(dep.dir, "graph.girgb")
	if err := mutateLayer(snap, dep.dir, in.writes[:applyBatches], in.pairs[:ladderQueries], rep); err != nil {
		return nil, fmt.Errorf("mutate layer: %w", err)
	}

	l, err := newLadder(g)
	if err != nil {
		l.close()
		return nil, err
	}
	defer l.close()
	pairs, refs := in.pairs[:ladderQueries], r.refs[:ladderQueries]
	l.run(pairs[:ladderQueries/4], refs, false, r.fail) // warm caches and connections
	plain := l.run(pairs, refs, false, r.fail)
	tr := l.run(pairs, refs, true, r.fail)
	rep.attempted += int64((len(pairs)*2 + ladderQueries/4) * ladderRepeats * (nRungs - 1))

	n := float64(len(pairs))
	perRep := n * ladderRepeats
	per := func(k int) float64 { return us(tr.dur[k]) / n }
	self := func(k int) float64 { return per(k) - per(k-1) }
	rep.set("torus.distpow_ns", float64(tr.dur[0].Nanoseconds())/float64(tr.calls), "ns")
	rep.set("torus.calls_per_query", float64(tr.calls)/n, "count")
	rep.set("route.walk_us", per(1), "us")
	rep.set("route.self_us", self(1), "us")
	rep.set("route.scans_per_query", float64(tr.scans)/n, "count")
	rep.set("route.allocs_per_query", allocsPerWalk(g, pairs), "count")
	rep.set("core.episode_us", per(2), "us")
	rep.set("core.self_us", self(2), "us")
	rep.set("serve.handler_us", per(3), "us")
	rep.set("serve.self_us", self(3), "us")
	rep.set("loopback.rtt_us", per(4), "us")
	rep.set("loopback.self_us", self(4), "us")
	rep.set("cluster.entry_us", per(5), "us")
	rep.set("cluster.self_us", self(5), "us")
	rep.set("cluster.replicated_us", per(6), "us")
	rep.set("cluster.replicated_self_us", self(6), "us")
	rep.set("cluster.forwards_per_query", float64(tr.forwards)/perRep, "count")
	rep.set("cluster.hedges_per_kq", 1000*float64(tr.hedges)/perRep, "count")
	rep.set("cluster.failovers_per_kq", 1000*float64(tr.failovers)/perRep, "count")
	rep.set("trace.overhead_ratio", tr.wall.Seconds()/plain.wall.Seconds(), "ratio")
	// Rungs must not get faster going up the ladder. Rungs that add no
	// measurable work to the one below (L2 over L1, L6 over L5) tie within
	// the noise of a fastest repeat, so an inversion is reported, with its
	// size, rather than failing the run.
	for k := 1; k < nRungs; k++ {
		if inv := 1 - per(k)/per(k-1); inv > 0 {
			rep.info["ladder_inversions"]++
			rep.info["ladder_worst_inversion"] = max(rep.info["ladder_worst_inversion"], inv)
			progress("ladder inversion: %s is %.2f%% faster than %s", rungNames[k], 100*inv, rungNames[k-1])
		}
	}
	rep.info["ladder_queries"] = n

	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed))
	if err := atomicio.WriteFile(path, func(w io.Writer) error { return writeSpans(w, tr.spans) }); err != nil {
		return nil, err
	}
	rep.correct = r.mismatches.Load() == 0
	if msg := r.firstErr.Load(); msg != nil {
		rep.note = fmt.Sprintf("%d mismatches; first: %s", r.mismatches.Load(), *msg)
	}
	return rep, nil
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
