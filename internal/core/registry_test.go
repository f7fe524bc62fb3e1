package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/route"
)

// reportsEqual compares two reports field by field, treating NaN summary
// means as equal (reflect.DeepEqual would not).
func reportsEqual(a, b MilgramReport) bool {
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.Attempts == b.Attempts && a.Success == b.Success &&
		a.Truncated == b.Truncated &&
		eq(a.MeanHops, b.MeanHops) && eq(a.MeanStretch, b.MeanStretch) &&
		reflect.DeepEqual(a.Hops, b.Hops) && reflect.DeepEqual(a.Stretches, b.Stretches)
}

func TestLookupErrorListsProtocols(t *testing.T) {
	_, err := Lookup("bogus")
	if err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
	for _, p := range []Protocol{"greedy", "phi-dfs", "gravity-pressure"} {
		if !strings.Contains(err.Error(), string(p)) {
			t.Fatalf("error %q does not list %q", err, p)
		}
	}
	p, err := Lookup("greedy")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "greedy" {
		t.Fatalf("Lookup(greedy).Name() = %q", p.Name())
	}
}

func TestZeroValueProtocolIsGreedy(t *testing.T) {
	// A zero-valued MilgramConfig.Protocol must route greedily — identical
	// report to an explicitly named greedy, not an error.
	nw := girgNet(t, 900, 32)
	def, err := RunMilgram(nw, MilgramConfig{Pairs: 40, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunMilgram(nw, MilgramConfig{Pairs: 40, Seed: 33, Protocol: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(def, explicit) {
		t.Fatalf("zero-value protocol report %+v differs from explicit greedy %+v", def, explicit)
	}
}

// constProtocol is an externally registered protocol: it never moves.
type constProtocol struct{}

func (constProtocol) Name() string { return "test-stay-put" }
func (constProtocol) Route(g route.Graph, obj route.Objective, s int) route.Result {
	return route.Result{Path: []int{s}, Stuck: s, Unique: 1}
}

// panicProtocol panics on every episode, as a buggy plug-in would.
type panicProtocol struct{}

func (panicProtocol) Name() string { return "test-panic" }
func (panicProtocol) Route(g route.Graph, obj route.Objective, s int) route.Result {
	panic("buggy plug-in protocol")
}

func TestExternalProtocolPlugsIn(t *testing.T) {
	Register(constProtocol{})
	nw := girgNet(t, 600, 34)

	// Addressable everywhere a protocol name is accepted.
	res, err := nw.Route("test-stay-put", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || len(res.Path) != 1 || res.Path[0] != 3 {
		t.Fatalf("custom protocol result %+v", res)
	}
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 20, Seed: 35, Protocol: "test-stay-put"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success.P != 0 {
		t.Fatalf("stay-put protocol delivered %v of letters", rep.Success.P)
	}
	// And listed after the built-ins.
	ps := Protocols()
	found := false
	for _, p := range ps[5:] {
		if p == "test-stay-put" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Protocols() = %v does not list the external protocol after the built-ins", ps)
	}
}

func TestProtocolPanicBecomesError(t *testing.T) {
	Register(panicProtocol{})
	nw := girgNet(t, 600, 36)

	before := Stats()
	if _, err := nw.Route("test-panic", 0, 1); err == nil {
		t.Fatal("panicking protocol returned no error from Route")
	} else if !strings.Contains(err.Error(), "test-panic") {
		t.Fatalf("error %q does not name the protocol", err)
	}
	// Batch runs must surface the error too — episode errors are propagated,
	// not swallowed.
	if _, err := RunMilgram(nw, MilgramConfig{Pairs: 10, Seed: 37, Protocol: "test-panic"}); err == nil {
		t.Fatal("panicking protocol returned no error from RunMilgram")
	}
	after := Stats()
	if after.Panics <= before.Panics {
		t.Fatalf("panic counter did not advance: %d -> %d", before.Panics, after.Panics)
	}
}

func TestRunMilgramCtxCancelled(t *testing.T) {
	nw := girgNet(t, 800, 38)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := Stats()
	rep, err := RunMilgramCtx(ctx, nw, MilgramConfig{Pairs: 500, Seed: 39})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Attempts != 0 || rep.Hops != nil {
		t.Fatalf("cancelled batch returned a partial report: %+v", rep)
	}
	after := Stats()
	if after.Episodes != before.Episodes {
		t.Fatalf("cancelled batch routed %d pairs", after.Episodes-before.Episodes)
	}
	if after.Batches != before.Batches {
		t.Fatal("cancelled batch counted as started")
	}
}

func TestRunMilgramCtxBackground(t *testing.T) {
	// A live context must not disturb the batch.
	nw := girgNet(t, 800, 40)
	a, err := RunMilgram(nw, MilgramConfig{Pairs: 30, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMilgramCtx(context.Background(), nw, MilgramConfig{Pairs: 30, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(a, b) {
		t.Fatalf("RunMilgramCtx report %+v differs from RunMilgram %+v", b, a)
	}
}

func TestEngineStatsCount(t *testing.T) {
	nw := girgNet(t, 700, 42)
	before := Stats()
	rep, err := RunMilgram(nw, MilgramConfig{Pairs: 25, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	after := Stats()
	if d := after.Episodes - before.Episodes; d != 25 {
		t.Fatalf("episode counter advanced by %d, want 25", d)
	}
	if d := after.Batches - before.Batches; d != 1 {
		t.Fatalf("batch counter advanced by %d, want 1", d)
	}
	if after.Moves <= before.Moves {
		t.Fatal("move counter did not advance")
	}
	failed := int64(rep.Attempts - len(rep.Hops))
	if d := after.Failures - before.Failures; d != failed {
		t.Fatalf("failure counter advanced by %d, report shows %d failures", d, failed)
	}
	var histTotal int64
	for _, c := range after.EpisodeWallTime {
		histTotal += c
	}
	if histTotal != after.Episodes-after.Panics {
		t.Fatalf("wall-time histogram holds %d episodes, counters say %d",
			histTotal, after.Episodes-after.Panics)
	}
}
