package trace_test

// Tests over executions recorded by the engine: the field-wise observation
// comparison against its string rendering, snapshot stability while the
// engine keeps running, and allocation-free checking.

import (
	"reflect"
	"slices"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// lineEngine returns an engine on an n-node line with drifting clocks and
// hashed delays, with a Recorder attached.
func lineEngine(t *testing.T, proto engine.Protocol, n int) (*engine.Engine, *trace.Recorder) {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := clock.Diverse(n, rat.MustFrac(3, 4), rat.MustFrac(5, 4), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(n)
	eng, err := engine.New(net,
		engine.WithProtocol(proto),
		engine.WithAdversary(engine.HashAdversary{Seed: 7, Denom: 8}),
		engine.WithSchedules(scheds),
		engine.WithRho(rat.MustFrac(1, 2)),
		engine.WithObservers(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rec
}

// runTo advances eng to t and returns the recorded execution so far.
func runTo(t *testing.T, eng *engine.Engine, rec *trace.Recorder, at rat.Rat) *trace.Execution {
	t.Helper()
	if err := eng.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	exec, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestSameObservationMatchesRendering pins the checkers' field-wise
// comparison to the string rendering it replaced: over every pair of actions
// recorded from all protocols on a small line, plus hand-built edge cases,
// the two must agree exactly.
func TestSameObservationMatchesRendering(t *testing.T) {
	var acts []trace.Action
	for _, proto := range algorithms.All() {
		eng, rec := lineEngine(t, proto, 4)
		acts = append(acts, runTo(t, eng, rec, rat.FromInt(6)).Actions...)
	}
	big := rat.MustParse("123456789012345678901234567890/7")
	twoPow40 := rat.FromInt(1 << 40)
	acts = append(acts,
		trace.Action{Kind: trace.KindInit, Peer: -1},
		trace.Action{Kind: trace.KindInit, Peer: 0},
		trace.Action{Kind: trace.Kind(0), Peer: -1},
		trace.Action{Kind: trace.Kind(99), Peer: -1},
		trace.Action{Kind: trace.Kind(99), Peer: -1, TimerID: 1},
		trace.Action{Kind: trace.KindRecv, Peer: 1, Payload: "v|1"},
		trace.Action{Kind: trace.KindRecv, Peer: 1, Payload: "v|1", MsgSeq: 1},
		trace.Action{Kind: trace.KindRecv, Peer: 1, Payload: "|timer=0|"},
		trace.Action{Kind: trace.KindRecv, Peer: 1, Payload: "|"},
		trace.Action{Kind: trace.KindRecv, Peer: 1},
		// Big-form readings: equal values built two ways, a neighbour, and
		// a small value reached through the big path.
		trace.Action{Kind: trace.KindSend, HW: big, Peer: 2, Payload: "v:1"},
		trace.Action{Kind: trace.KindSend, HW: rat.MustParse("246913578024691357802469135780/14"), Peer: 2, Payload: "v:1"},
		trace.Action{Kind: trace.KindSend, HW: big.Add(rat.MustFrac(1, 7)), Peer: 2, Payload: "v:1"},
		trace.Action{Kind: trace.KindTimer, HW: twoPow40, Peer: -1, TimerID: 1},
		trace.Action{Kind: trace.KindTimer, HW: twoPow40.Mul(twoPow40).Div(twoPow40), Peer: -1, TimerID: 1},
	)
	obs := make([]string, len(acts))
	for k := range acts {
		obs[k] = trace.Observation(acts[k])
	}
	equal := 0
	for x := range acts {
		for y := range acts {
			want := obs[x] == obs[y]
			if got := trace.SameObservation(&acts[x], &acts[y]); got != want {
				t.Fatalf("SameObservation = %v, rendering equal = %v:\n  %s\n  %s", got, want, obs[x], obs[y])
			}
			if want && x != y {
				equal++
			}
		}
	}
	// Equal pairs of distinct actions exercise the "true" side.
	if equal == 0 {
		t.Fatal("no two distinct actions render equal; the comparison is untested on matches")
	}
}

// deepCopy returns an Execution sharing no trace storage with e.
func deepCopy(e *trace.Execution) *trace.Execution {
	c := *e
	c.Actions = slices.Clone(e.Actions)
	c.PerNode = make([][]int, len(e.PerNode))
	for i, idxs := range e.PerNode {
		c.PerNode[i] = slices.Clone(idxs)
	}
	c.Ledger = slices.Clone(e.Ledger)
	return &c
}

// TestExecutionSnapshotStable: a snapshot taken mid-run shares the
// recorder's storage, yet stays exactly equal to a private copy of itself
// after the engine keeps running and a second snapshot is taken.
func TestExecutionSnapshotStable(t *testing.T) {
	eng, rec := lineEngine(t, algorithms.MaxGossip(rat.FromInt(1)), 5)
	t1 := rat.MustFrac(16, 3)
	mid := runTo(t, eng, rec, t1)
	inFlight := 0
	for _, m := range mid.Ledger {
		if !m.Delivered {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no message in flight at the snapshot; the ledger's copy-on-write is untested")
	}
	want := deepCopy(mid)
	full := runTo(t, eng, rec, rat.FromInt(12))
	if !reflect.DeepEqual(mid, want) {
		t.Fatal("resuming the engine changed the mid-run snapshot")
	}
	if len(full.Actions) <= len(mid.Actions) {
		t.Fatalf("resumed run recorded %d actions, snapshot %d", len(full.Actions), len(mid.Actions))
	}
	if err := trace.PrefixEqual(full, mid, t1); err != nil {
		t.Fatal(err)
	}
}

// TestCheckersAllocateNothing: on a passing pair, the indistinguishability
// and prefix checks walk the traces in place and allocate nothing. β is the
// run's snapshot at t1 and α the same run at 12, so β is α's prefix.
func TestCheckersAllocateNothing(t *testing.T) {
	eng, rec := lineEngine(t, algorithms.Gradient(algorithms.DefaultGradientParams()), 5)
	t1 := rat.MustFrac(16, 3)
	beta := runTo(t, eng, rec, t1)
	alpha := runTo(t, eng, rec, rat.FromInt(12))
	if err := trace.CheckIndistinguishable(alpha, beta); err != nil {
		t.Fatal(err)
	}
	if err := trace.PrefixEqual(alpha, beta, t1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = trace.CheckIndistinguishable(alpha, beta) }); n != 0 {
		t.Errorf("CheckIndistinguishable allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = trace.PrefixEqual(alpha, beta, t1) }); n != 0 {
		t.Errorf("PrefixEqual allocated %v times per call, want 0", n)
	}
}
