package search

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
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
