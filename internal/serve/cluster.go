package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
)

// This file is the cluster half of the serving layer: when EnableCluster
// installs a shard map, eligible /route queries run the partial greedy
// router over the local shard and forward the continuation to the owning
// peer over POST /cluster/hop. Forwarding reuses the daemon's resilience
// vocabulary — a circuit breaker per (peer, graph), the RetryPolicy's
// backoff, the request deadline — and a forward that cannot be completed
// comes back as the classified shard-unreachable failure, never a hang:
// the cluster degrades to "that shard's vertices are unreachable" while
// every shard-local route keeps working.

// maxHopDepth caps hop chaining. Greedy never revisits a shard (the walk is
// strictly objective-increasing), so a legitimate chain is bounded by the
// shard count; the cap only exists to turn a routing bug into a classified
// truncated episode instead of a forwarding loop.
const maxHopDepth = 16

// peerKey identifies one per-(peer, graph) forward breaker. These are
// deliberately separate from the (graph, protocol) request breakers: a dead
// peer must fail its own forwards fast without poisoning shard-local
// routing on the same graph.
type peerKey struct{ peer, graph string }

// EnableCluster installs the shard map and starts answering /cluster/hop
// and /cluster/gossip. client carries hop forwards and may be nil (a
// default client; per-request deadlines bound every call). Call before
// serving — the field is not synchronized against in-flight requests.
func (s *Server) EnableCluster(node *cluster.Node, client *http.Client) {
	if client == nil {
		client = &http.Client{}
	}
	s.clusterNode = node
	s.clusterClient = client
}

// ClusterNode returns the installed shard map (nil on a single-node
// daemon).
func (s *Server) ClusterNode() *cluster.Node { return s.clusterNode }

// PeerBreaker exposes the (peer, graph) forward breaker, creating it on
// first use like the forward path does.
func (s *Server) PeerBreaker(peer, graph string) *Breaker {
	if graph == "" {
		graph = DefaultGraph
	}
	return s.peerBreaker(peer, graph)
}

func (s *Server) peerBreaker(peer, graph string) *Breaker {
	key := peerKey{peer, graph}
	s.peerBreakerMu.Lock()
	defer s.peerBreakerMu.Unlock()
	b, ok := s.peerBreakers[key]
	if !ok {
		b = NewBreaker(s.cfg.Breaker)
		s.peerBreakers[key] = b
	}
	return b
}

// clusterEligible reports whether one validated query can take the sharded
// path: cluster mode on, pure greedy under the standard objective, no fault
// plan, the resolved snapshot is the one the shard map was built over
// (pointer equality — after a hot swap the mask no longer applies and the
// query falls back to local full-graph routing), and the slot carries no
// live overlay — the shard masks are bound to the immutable base, so a
// replicated live slot routes locally over its full overlay instead.
func (s *Server) clusterEligible(nw *core.Network, protoName string, q RouteRequest) bool {
	node := s.clusterNode
	return node != nil &&
		protoName == "greedy" &&
		nw.StandardPhi &&
		len(q.Faults) == 0 &&
		nw.Graph == node.Graph() &&
		nw.LiveOverlay() == nil
}

// routeFwd is the forwarding summary of one sharded episode attempt, as
// reported in RouteResponse: boundary crossings, hedges fired and failovers
// won across the whole hop chain.
type routeFwd struct {
	forwards  int
	hedges    int
	failovers int
}

// clusterRoute runs one attempt of a sharded greedy episode: the local
// segment via the partial router, then — if the walk crossed the shard
// boundary — the continuation via forwardHop, stitched back into es.out.
// The merged result is bit-identical to single-node GreedyCSR whenever the
// owning peers answered; a failed forward classifies the episode as
// shard-unreachable. Exactly one engine episode is recorded here, at the
// entry daemon, with the merged result — hop receivers record nothing, so
// cluster-wide counters sum honestly. Returns the attempt's forwarding
// summary.
func (s *Server) clusterRoute(ctx context.Context, graphName string, sv, tv int, deadline time.Time, es *episodeState, rt *reqTrace, tm *Timings) routeFwd {
	logger := obs.Logger(ctx)
	node := s.clusterNode
	start := time.Now()
	res := &es.out
	b := route.Budget{MaxScans: s.cfg.MaxHops, Deadline: deadline}
	exit := route.GreedyCSRPartial(node.Graph(), tv, sv, node.OwnedMask(), b, &es.sc, res)
	segDur := time.Since(start)
	tm.RouteUs += segDur.Microseconds()
	s.phaseLat[phaseRoute].Record(segDur)
	rt.add(obs.SpanLocalRoute, start, segDur, "", "partial", "")
	var fwd routeFwd
	if exit >= 0 {
		fwdStart := time.Now()
		hop, hs, ok := s.forwardHop(ctx, graphName, exit, tv, deadline, 1, rt, tm)
		tm.ForwardUs += time.Since(fwdStart).Microseconds()
		fwd.hedges = hs.hedges + hop.Hedges
		fwd.failovers = hs.failovers + hop.Failovers
		if ok {
			mergeHop(res, hop)
			fwd.forwards = 1 + hop.Forwards
		} else {
			s.shardUnreachable.Add(1)
			res.Success = false
			res.Failure = route.FailShardUnreachable
			res.Stuck = -1
			res.Unique = len(res.Path)
			fwd.forwards = 1
			logger.Warn("shard unreachable", "graph", graphName,
				"exit_vertex", exit, "t", tv)
		}
	}
	core.RecordEpisode(*res, time.Since(start))
	return fwd
}

// mergeHop stitches a hop continuation onto the local segment. The
// continuation starts at the exit vertex the segment already ends with, so
// its first vertex is dropped; greedy is strictly objective-increasing, so
// the merged path has no revisits and Unique stays len(Path).
func mergeHop(res *route.Result, hop HopResponse) {
	if len(hop.Path) > 1 {
		res.Path = append(res.Path, hop.Path[1:]...)
	}
	res.Moves += hop.Moves
	res.Unique = len(res.Path)
	res.Success = hop.Success
	res.Failure = route.Failure(hop.Failure)
	res.Stuck = hop.Stuck
	res.Truncated = hop.Failure == string(route.FailTruncated)
}

// hopStats counts the forwarding decisions made locally for one forward:
// hedged second attempts fired and successes obtained at a replica other
// than the first choice. Downstream hops report their own counts inside
// HopResponse; the entry daemon sums both for the episode totals.
type hopStats struct {
	hedges    int
	failovers int
}

// forwardHop hands the walk at vertex `from` to the replica set owning it
// and returns the classified continuation. Candidates come from OwnersOf in
// deterministic failover order (alive before suspect, then replica id);
// open-breaker peers are skipped. The first candidate is posted immediately;
// if a hedge policy is configured and the candidate has not answered after
// the deterministic hedge delay, a second attempt fires at the next
// candidate and the first 200 wins — the loser is cancelled via its context
// and records nothing (slow is not a strike). A candidate that fails on its
// own counts against its (peer, graph) breaker, strikes the membership
// failure detector, and fails over to the next candidate immediately.
//
// When every candidate of a pass failed, retryable failures (transport
// errors, 5xx) back off and retry under the request deadline with a fresh
// candidate list; pure-4xx passes are permanent. ok is false when no answer
// could be obtained — no routable owner, breakers open, candidates and
// retries exhausted, deadline spent — and the caller classifies the episode
// shard-unreachable.
func (s *Server) forwardHop(ctx context.Context, graphName string, from, t int, deadline time.Time, depth int, rt *reqTrace, tm *Timings) (HopResponse, hopStats, bool) {
	logger := obs.Logger(ctx)
	node := s.clusterNode
	var stats hopStats
	for attempt := 1; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return HopResponse{}, stats, false
		}
		owners := node.OwnersOf(from)
		if len(owners) == 0 {
			logger.Warn("forward failed", "reason", "no routable owner", "vertex", from)
			return HopResponse{}, stats, false
		}
		cands := owners[:0:0]
		for _, p := range owners {
			if _, err := s.peerBreaker(p.ID, graphName).Allow(); err == nil {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			logger.Warn("forward failed", "reason", "peer breakers open", "vertex", from, "replicas", len(owners))
			return HopResponse{}, stats, false
		}
		resp, retryable, ok := s.tryReplicas(ctx, graphName, from, t, deadline, depth, cands, &stats, rt, tm)
		if ok {
			return resp, stats, true
		}
		if !retryable || attempt >= s.cfg.Retry.MaxAttempts {
			return HopResponse{}, stats, false
		}
		wait := s.cfg.Retry.Backoff(hash64(uint64(from), uint64(t)), attempt)
		if rem := time.Until(deadline); wait > rem {
			wait = rem
		}
		if wait > 0 {
			bkStart := time.Now()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
				slept := time.Since(bkStart)
				tm.BackoffUs += slept.Microseconds()
				s.phaseLat[phaseBackoff].Record(slept)
				rt.add(obs.SpanRetryBackoff, bkStart, slept, "",
					fmt.Sprintf("forward attempt %d", attempt), "")
			case <-ctx.Done():
				timer.Stop()
				return HopResponse{}, stats, false
			}
		}
	}
}

// postResult is one replica attempt's answer, tagged with its candidate
// index and the round-trip wall time.
type postResult struct {
	idx    int
	resp   HopResponse
	status int
	err    error
	dur    time.Duration
}

// tryReplicas runs one failover pass over the candidate replicas: post to
// the first, hedge onto the second after the deterministic delay, fail over
// to the next on observed failure, first 200 wins. retryable reports
// whether at least one failure was transient (transport error or 5xx) — a
// pure-4xx pass will not improve on retry.
//
// Tracing: each launched attempt gets a forward_rpc span whose id is
// allocated serially in the select loop (deterministic despite racing RPCs)
// and rides the Traceparent header, so the receiving daemon's hop root
// parents onto it. A cancelled loser still publishes its span (err
// "cancelled") — the peer may have served the hop and recorded children
// under that id, and a published parent is what keeps stitched trees free of
// orphans.
func (s *Server) tryReplicas(ctx context.Context, graphName string, from, t int, deadline time.Time, depth int, cands []cluster.Peer, stats *hopStats, rt *reqTrace, tm *Timings) (HopResponse, bool, bool) {
	logger := obs.Logger(ctx)
	node := s.clusterNode
	req := HopRequest{
		Graph: graphName,
		S:     from, T: t,
		DeadlineMs: time.Until(deadline).Milliseconds(),
		Depth:      depth,
	}

	results := make(chan postResult, len(cands))
	cancels := make([]context.CancelFunc, len(cands))
	spanIDs := make([]string, len(cands))
	starts := make([]time.Time, len(cands))
	ended := make([]bool, len(cands))
	passStart := time.Now()
	defer func() {
		// Cancel whatever is still in flight — the losers of a won race.
		// Their goroutines drain into the buffered channel and their
		// cancellation errors are never recorded against breaker or
		// membership: being slower than the winner is not a failure. Their
		// spans are published as cancelled so downstream hop spans keep a
		// recorded parent.
		for i, cancel := range cancels {
			if cancel != nil {
				cancel()
				if !ended[i] {
					rt.end(spanIDs[i], obs.SpanForwardRPC, starts[i], time.Since(starts[i]),
						cands[i].ID, fmt.Sprintf("hop depth=%d", depth), "cancelled")
				}
			}
		}
	}()
	hedgedIdx := -1 // candidate index launched by the hedge timer
	launch := func(i int) {
		actx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		spanIDs[i] = rt.allocID()
		starts[i] = time.Now()
		tp := rt.traceparent(spanIDs[i])
		s.forwards.Add(1)
		go func() {
			t0 := time.Now()
			resp, status, err := s.postHop(actx, cands[i], req, deadline, tp)
			results <- postResult{i, resp, status, err, time.Since(t0)}
		}()
	}

	launch(0)
	next, pending := 1, 1
	var hedgeC <-chan time.Time
	hedge := cluster.HedgePolicy{After: s.cfg.HedgeAfter, Seed: s.cfg.Retry.Seed}
	if hedge.Enabled() && next < len(cands) {
		c, stop := s.hedgeTimer(hedge.Delay(hash64(uint64(from), uint64(t), uint64(depth))))
		defer stop()
		hedgeC = c
	}

	retryable := false
	for pending > 0 {
		select {
		case <-ctx.Done():
			return HopResponse{}, false, false
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				hedgedIdx = next
				stats.hedges++
				s.hedges.Add(1)
				hedgeWait := time.Since(passStart)
				tm.HedgeUs += hedgeWait.Microseconds()
				s.phaseLat[phaseHedge].Record(hedgeWait)
				rt.add(obs.SpanHedgeWait, passStart, hedgeWait,
					cands[next].ID, fmt.Sprintf("hedge idx=%d", next), "")
				logger.Debug("forward hedged", "vertex", from,
					"first", cands[0].ID, "hedge", cands[next].ID)
				launch(next)
				next++
				pending++
			}
		case r := <-results:
			pending--
			peer := cands[r.idx]
			pb := s.peerBreaker(peer.ID, graphName)
			s.phaseLat[phaseForward].Record(r.dur)
			if r.err == nil && r.status == http.StatusOK {
				ended[r.idx] = true
				rt.end(spanIDs[r.idx], obs.SpanForwardRPC, starts[r.idx], r.dur,
					peer.ID, fmt.Sprintf("hop depth=%d", depth), "")
				pb.Record(false)
				node.Members().ReportSuccess(peer.ID)
				switch {
				case r.idx == hedgedIdx:
					s.hedgeWins.Add(1)
					s.hedgeWinLat.Record(r.dur)
				case r.idx > 0:
					stats.failovers++
					s.failovers.Add(1)
					s.failoverLat.Record(time.Since(passStart))
				}
				return r.resp, false, true
			}
			s.forwardFails.Add(1)
			pb.Record(true)
			node.Members().ReportFailure(peer.ID)
			var errMsg string
			if r.err != nil {
				retryable = true
				errMsg = r.err.Error()
				logger.Warn("forward failed", "peer", peer.ID, "err", r.err)
			} else {
				errMsg = fmt.Sprintf("status %d", r.status)
				logger.Warn("forward failed", "peer", peer.ID, "status", r.status)
				if r.status < 400 || r.status >= 500 {
					retryable = true
				}
			}
			ended[r.idx] = true
			rt.end(spanIDs[r.idx], obs.SpanForwardRPC, starts[r.idx], r.dur,
				peer.ID, fmt.Sprintf("hop depth=%d", depth), errMsg)
			if next < len(cands) {
				launch(next)
				next++
				pending++
			}
		}
	}
	return HopResponse{}, retryable, false
}

// postHop is one POST /cluster/hop round trip, bounded by the request
// deadline and carrying the request id across the hop (satellite of the
// observability story: one id labels the episode on every shard it
// touches). tp, when non-empty, is the Traceparent header value naming the
// sender's forward_rpc span, so the receiver's spans parent onto it.
func (s *Server) postHop(ctx context.Context, peer cluster.Peer, req HopRequest, deadline time.Time, tp string) (HopResponse, int, error) {
	var resp HopResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, 0, err
	}
	hctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	hreq, err := http.NewRequestWithContext(hctx, http.MethodPost,
		"http://"+peer.ID+"/cluster/hop", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.RequestID(ctx); id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	if tp != "" {
		hreq.Header.Set(obs.TraceHeader, tp)
	}
	hresp, err := s.clusterClient.Do(hreq)
	if err != nil {
		return resp, 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<16))
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		return resp, hresp.StatusCode, nil
	}
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 8<<20)).Decode(&resp); err != nil {
		return resp, hresp.StatusCode, err
	}
	return resp, hresp.StatusCode, nil
}

// handleClusterHop serves POST /cluster/hop: route the continuation of a
// peer's greedy walk over the local shard, forwarding again if it crosses
// out. Hops bypass the admission pool — they are the continuation of a
// request already admitted at the entry daemon, and waiting for a slot here
// could deadlock two shards forwarding into each other — but they respect
// draining. Any classified outcome is 200; the entry daemon records the
// episode, so this handler touches no engine counters.
func (s *Server) handleClusterHop(w http.ResponseWriter, r *http.Request) {
	logger := obs.Logger(r.Context())
	node := s.clusterNode
	if node == nil {
		writeError(w, http.StatusNotFound, 0, "not clustered")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, "server draining")
		return
	}
	defer s.inflight.Done()

	var req HopRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	graphName := req.Graph
	if graphName == "" {
		graphName = DefaultGraph
	}
	nw, ok := s.Network(graphName)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "unknown graph %q", graphName)
		return
	}
	if nw.Graph != node.Graph() {
		writeError(w, http.StatusConflict, 0, "graph %q is not the clustered snapshot", graphName)
		return
	}
	if nw.LiveOverlay() != nil {
		writeError(w, http.StatusConflict, 0, "graph %q carries a live overlay; hops route over the immutable base only", graphName)
		return
	}
	if req.S < 0 || req.S >= nw.Graph.N() || req.T < 0 || req.T >= nw.Graph.N() {
		writeError(w, http.StatusBadRequest, 0, "vertex pair (%d, %d) out of range (n = %d)",
			req.S, req.T, nw.Graph.N())
		return
	}
	s.hopsServed.Add(1)

	// The forwarding daemon records its own side of the trace: a hop root
	// parented on the caller's forward_rpc span (adopted from Traceparent),
	// with this shard's local segment and onward forwards as children —
	// without it, stitched trees would show the entry daemon only.
	rt := s.startHopTrace(r, fmt.Sprintf("depth=%d", req.Depth))
	defer func() { rt.finish("") }()

	deadline := time.Now().Add(s.cfg.RequestTimeout)
	if req.DeadlineMs > 0 {
		if d := time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond); d.Before(deadline) {
			deadline = d
		}
	}
	if req.Depth > maxHopDepth {
		rt.finish("truncated")
		logger.Warn("hop chain truncated", "depth", req.Depth, "s", req.S, "t", req.T)
		writeJSON(w, http.StatusOK, HopResponse{
			Failure: string(route.FailTruncated),
			Stuck:   -1,
			Path:    []int{req.S},
		})
		return
	}

	es := episodePool.Get().(*episodeState)
	defer episodePool.Put(es)
	res := &es.out
	b := route.Budget{MaxScans: s.cfg.MaxHops, Deadline: deadline}
	segStart := time.Now()
	exit := route.GreedyCSRPartial(node.Graph(), req.T, req.S, node.OwnedMask(), b, &es.sc, res)
	segDur := time.Since(segStart)
	s.phaseLat[phaseRoute].Record(segDur)
	rt.add(obs.SpanLocalRoute, segStart, segDur, "", "partial", "")
	// The hop's Timings stay local: HopResponse carries no attribution (the
	// entry daemon owns the merged episode), but the per-phase histograms and
	// spans above still need the accumulator forwardHop threads through.
	tm := &Timings{}
	resp := HopResponse{}
	if exit >= 0 {
		hop, hs, ok := s.forwardHop(r.Context(), graphName, exit, req.T, deadline, req.Depth+1, rt, tm)
		resp.Hedges = hs.hedges + hop.Hedges
		resp.Failovers = hs.failovers + hop.Failovers
		if ok {
			mergeHop(res, hop)
			resp.Forwards = 1 + hop.Forwards
		} else {
			s.shardUnreachable.Add(1)
			res.Success = false
			res.Failure = route.FailShardUnreachable
			res.Stuck = -1
			res.Unique = len(res.Path)
			resp.Forwards = 1
		}
	}
	resp.Success = res.Success
	resp.Failure = string(res.Failure)
	resp.Stuck = res.Stuck
	resp.Moves = res.Moves
	resp.Path = append([]int(nil), res.Path...)
	logger.Debug("hop served", "s", req.S, "t", req.T, "depth", req.Depth,
		"success", resp.Success, "failure", resp.Failure, "forwards", resp.Forwards)
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterGossip serves POST /cluster/gossip: merge the sender and its
// relayed view into the membership and answer with ours — the pull half of
// push/pull. Gossip stays up while draining so peers observe the shutdown
// as liveness, not silence.
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	node := s.clusterNode
	if node == nil {
		writeError(w, http.StatusNotFound, 0, "not clustered")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	var req cluster.GossipRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	view := node.Members().Receive(req.From, req.View)
	writeJSON(w, http.StatusOK, cluster.GossipResponse{Self: node.Self(), View: view})
}

// writeClusterMetrics emits the smallworld_cluster_* families (only called
// when cluster mode is on).
func (s *Server) writeClusterMetrics(p *obs.PromWriter) {
	node := s.clusterNode
	p.Family("smallworld_cluster_forwards_total", "counter", "Hop forwards attempted.")
	p.SampleInt("smallworld_cluster_forwards_total", nil, s.forwards.Load())
	p.Family("smallworld_cluster_forward_failures_total", "counter", "Hop forward attempts that failed (transport error, non-200, breaker open).")
	p.SampleInt("smallworld_cluster_forward_failures_total", nil, s.forwardFails.Load())
	p.Family("smallworld_cluster_shard_unreachable_total", "counter", "Episodes classified shard-unreachable at this daemon.")
	p.SampleInt("smallworld_cluster_shard_unreachable_total", nil, s.shardUnreachable.Load())
	p.Family("smallworld_cluster_hops_served_total", "counter", "POST /cluster/hop continuations served.")
	p.SampleInt("smallworld_cluster_hops_served_total", nil, s.hopsServed.Load())
	p.Family("smallworld_cluster_hedges_total", "counter", "Hedged second forward attempts fired.")
	p.SampleInt("smallworld_cluster_hedges_total", nil, s.hedges.Load())
	p.Family("smallworld_cluster_hedge_wins_total", "counter", "Hedged attempts whose response won the race.")
	p.SampleInt("smallworld_cluster_hedge_wins_total", nil, s.hedgeWins.Load())
	p.Family("smallworld_cluster_failovers_total", "counter", "Forwards that succeeded at a replica other than the first choice.")
	p.SampleInt("smallworld_cluster_failovers_total", nil, s.failovers.Load())
	p.Family("smallworld_cluster_gossip_rounds_total", "counter", "Gossip rounds ticked.")
	p.SampleInt("smallworld_cluster_gossip_rounds_total", nil, int64(node.Members().Round()))
	p.Family("smallworld_cluster_hedge_win_latency_seconds", "histogram", "Round-trip latency of hedged attempts that won their race.")
	s.hedgeWinLat.WriteHistogramSamples(p, "smallworld_cluster_hedge_win_latency_seconds", nil)
	p.Family("smallworld_cluster_failover_latency_seconds", "histogram", "Time from a forward pass's first attempt to a success at a non-first-choice replica.")
	s.failoverLat.WriteHistogramSamples(p, "smallworld_cluster_failover_latency_seconds", nil)

	counts := node.Members().CountByState()
	p.Family("smallworld_cluster_peers", "gauge", "Known peers by failure-detector state.")
	for _, st := range []cluster.PeerState{cluster.StateAlive, cluster.StateSuspect, cluster.StateDown} {
		p.SampleInt("smallworld_cluster_peers",
			[]obs.Label{{Name: "state", Value: st.String()}}, int64(counts[st]))
	}

	type pbSample struct {
		peer, graph string
		state       float64
		opens       int64
	}
	s.peerBreakerMu.Lock()
	samples := make([]pbSample, 0, len(s.peerBreakers))
	for key, b := range s.peerBreakers {
		samples = append(samples, pbSample{key.peer, key.graph, breakerStateValue(b.State()), b.Opens()})
	}
	s.peerBreakerMu.Unlock()
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].peer != samples[j].peer {
			return samples[i].peer < samples[j].peer
		}
		return samples[i].graph < samples[j].graph
	})
	p.Family("smallworld_cluster_peer_breaker_state", "gauge", "Forward breaker state per (peer, graph): 0 closed, 1 open, 2 half-open.")
	for _, b := range samples {
		p.Sample("smallworld_cluster_peer_breaker_state",
			[]obs.Label{{Name: "peer", Value: b.peer}, {Name: "graph", Value: b.graph}}, b.state)
	}
	p.Family("smallworld_cluster_peer_breaker_opens_total", "counter", "Cumulative forward breaker trips to open.")
	for _, b := range samples {
		p.SampleInt("smallworld_cluster_peer_breaker_opens_total",
			[]obs.Label{{Name: "peer", Value: b.peer}, {Name: "graph", Value: b.graph}}, b.opens)
	}
}

// clusterStats fills the cluster slice of ServeStats.
func (s *Server) clusterStats(st *ServeStats) {
	node := s.clusterNode
	if node == nil {
		return
	}
	st.Cluster = &ClusterStats{
		Self:             node.Self().ID,
		Shard:            node.Self().Shard,
		Replica:          node.Replica(),
		OwnedVertices:    node.OwnedCount(),
		GossipRounds:     node.Members().Round(),
		Forwards:         s.forwards.Load(),
		ForwardFails:     s.forwardFails.Load(),
		HopsServed:       s.hopsServed.Load(),
		ShardUnreachable: s.shardUnreachable.Load(),
		Hedges:           s.hedges.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		Failovers:        s.failovers.Load(),
		Peers:            map[string]string{},
		PeerBreakers:     map[string]string{},
	}
	for _, ps := range node.Members().Snapshot() {
		st.Cluster.Peers[ps.Peer.ID] = ps.StateS
	}
	s.peerBreakerMu.Lock()
	for key, b := range s.peerBreakers {
		st.Cluster.PeerBreakers[key.peer+"/"+key.graph] = fmt.Sprintf("%s (opens=%d)", b.State(), b.Opens())
	}
	s.peerBreakerMu.Unlock()
	st.Cluster.Replication = s.replicationStats()
}

// ClusterStats is the cluster slice of the "smallworld.serve" expvar export.
type ClusterStats struct {
	Self             string
	Shard            string
	Replica          int
	OwnedVertices    int
	GossipRounds     uint64
	Forwards         int64
	ForwardFails     int64
	HopsServed       int64
	ShardUnreachable int64
	Hedges           int64
	HedgeWins        int64
	Failovers        int64
	// Replication describes journal shipping and anti-entropy (nil unless a
	// replicated mutation log is attached).
	Replication *ReplicationStats `json:",omitempty"`
	// Peers maps peer id to failure-detector state.
	Peers map[string]string
	// PeerBreakers maps "peer/graph" to forward breaker state.
	PeerBreakers map[string]string
}
