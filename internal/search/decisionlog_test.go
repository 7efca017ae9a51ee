package search

import (
	"runtime"
	"slices"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestDecisionLogMatchesLedger: a fixed run — gradient on a drifting 3-node
// line under the midpoint adversary — captures one decision per message the
// run's recorded ledger holds, in the same order: the same key and delay,
// and as Event the count of events dispatched up to the send (the recorded
// actions other than sends before it).
func TestDecisionLogMatchesLedger(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(ri(1)),
		clock.Constant(rf(9, 8)),
		clock.Constant(rf(7, 8)),
	}
	log := NewDecisionLog()
	rec := trace.NewRecorder(net.N())
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.Gradient(algorithms.DefaultGradientParams())),
		engine.WithAdversary(engine.Midpoint()),
		engine.WithSchedules(scheds),
		engine.WithRho(rf(1, 4)),
		engine.WithObservers(log, rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	exec, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 || log.Len() != len(exec.Ledger) {
		t.Fatalf("captured %d decisions, the ledger holds %d messages", log.Len(), len(exec.Ledger))
	}
	var events uint64
	sends := 0
	for _, a := range exec.Actions {
		if a.Kind != trace.KindSend {
			events++
			continue
		}
		d, m := log.Decisions()[sends], exec.Ledger[sends]
		if d.Key != m.Key || a.Node != m.Key.From || a.Peer != m.Key.To || a.MsgSeq != m.Key.Seq {
			t.Fatalf("send %d: decision %v, ledger %v, action node %d peer %d seq %d", sends, d.Key, m.Key, a.Node, a.Peer, a.MsgSeq)
		}
		if !d.Delay.Equal(m.Delay) || d.Event != events {
			t.Fatalf("send %d (%v): decision delay %s, event %d; ledger delay %s, event %d",
				sends, m.Key, d.Delay, d.Event, m.Delay, events)
		}
		if bound := net.Dist(m.Key.From, m.Key.To); !d.Delay.Equal(rf(1, 2).Mul(bound)) {
			t.Fatalf("send %d: midpoint delay %s under bound %s", sends, d.Delay, bound)
		}
		sends++
	}
	if sends != log.Len() {
		t.Fatalf("%d send actions for %d decisions", sends, log.Len())
	}
}

// sendRec is a delivered send from node 0 to node 1 with the given sequence
// number.
func sendRec(seq uint64) trace.MsgRecord {
	return trace.MsgRecord{Key: trace.MsgKey{From: 0, To: 1, Seq: seq}, Delay: rat.FromInt(1)}
}

// logSeqs lists a log's decision sequence numbers in send order.
func logSeqs(l *DecisionLog) []uint64 {
	out := make([]uint64, l.Len())
	for i, d := range l.Decisions() {
		out[i] = d.Key.Seq
	}
	return out
}

// TestDecisionLogCloneIsolatesBranches: a clone shares its parent's prefix,
// yet each branch sees only its own appends — whether the original or the
// clone appends first, and with spare capacity in the original's storage
// (the case a shared, uncapped view would get wrong).
func TestDecisionLogCloneIsolatesBranches(t *testing.T) {
	for _, originalFirst := range []bool{true, false} {
		orig := NewDecisionLog()
		for seq := uint64(0); seq < 5; seq++ { // 5 appends leave spare capacity
			orig.OnSend(sendRec(seq))
		}
		orig.OnAction(trace.Action{Kind: trace.KindRecv})
		clone := orig.Clone()
		if originalFirst {
			orig.OnSend(sendRec(100))
			clone.OnSend(sendRec(200))
		} else {
			clone.OnSend(sendRec(200))
			orig.OnSend(sendRec(100))
		}
		orig.OnSend(sendRec(101))
		clone.OnSend(sendRec(201))
		want := map[*DecisionLog][]uint64{
			orig:  {0, 1, 2, 3, 4, 100, 101},
			clone: {0, 1, 2, 3, 4, 200, 201},
		}
		for l, w := range want {
			if got := logSeqs(l); !slices.Equal(got, w) {
				t.Fatalf("originalFirst=%v: %s decisions %v, want %v", originalFirst, l, got, w)
			}
		}
		if d := clone.Decisions()[5]; d.Event != 1 {
			t.Fatalf("originalFirst=%v: clone's first own decision at event %d, want 1 (the event count carries over)", originalFirst, d.Event)
		}
	}
}

// TestDecisionLogCloneCostIndependentOfLength: a fork's log clone keeps the
// trunk's decisions as a shared prefix, so neither the clone nor its first
// send copies them: the two together allocate the same bytes at 10 and at
// 10,000 decisions. Bytes, not allocations: a copy of the prefix is one
// allocation at any length.
func TestDecisionLogCloneCostIndependentOfLength(t *testing.T) {
	// One processor and a collection first keep the runtime's own
	// allocations out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 16
	bytes := func(n int) uint64 {
		l := NewDecisionLog()
		for seq := 0; seq < n; seq++ {
			l.OnSend(sendRec(uint64(seq)))
		}
		clones := make([]*DecisionLog, runs)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range clones {
			clones[i] = l.Clone()
			clones[i].OnSend(sendRec(uint64(n)))
		}
		runtime.ReadMemStats(&after)
		for _, c := range clones {
			if c.Len() != n+1 {
				t.Fatalf("clone of %d decisions holds %d after one send", n, c.Len())
			}
		}
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytes(10), bytes(10000)
	if small != large {
		t.Fatalf("Clone plus one send allocates %d bytes at 10 decisions, %d at 10,000; want equal", small, large)
	}
}
