package trace

import (
	"reflect"
	"runtime"
	"testing"

	"gcs/internal/rat"
)

// record feeds k timer actions tagged with id, cycling over the nodes of r
// from node id: branches with different ids put different action indices on
// each node.
func record(r *Recorder, k, id int) {
	for j := 0; j < k; j++ {
		r.OnAction(Action{Node: (j + id) % len(r.perNode), Kind: KindTimer, Real: ri(int64(j)), Peer: -1, TimerID: id})
	}
}

// branchOf checks that r holds the shared prefix of n actions (TimerID 0)
// followed by exactly k actions of its own branch id, in every view.
func branchOf(t *testing.T, who string, r *Recorder, n, k, id int) {
	t.Helper()
	if len(r.actions) != n+k {
		t.Fatalf("%s: %d actions, want %d", who, len(r.actions), n+k)
	}
	for j, a := range r.actions {
		want := 0
		if j >= n {
			want = id
		}
		if a.TimerID != want {
			t.Fatalf("%s: action %d is from branch %d, want %d", who, j, a.TimerID, want)
		}
	}
	total := 0
	for i, idxs := range r.perNode {
		for _, x := range idxs {
			if x >= len(r.actions) || r.actions[x].Node != i {
				t.Fatalf("%s: node %d index %d does not name one of its actions", who, i, x)
			}
		}
		total += len(idxs)
	}
	if total != n+k {
		t.Fatalf("%s: per-node indices cover %d actions, want %d", who, total, n+k)
	}
}

// TestRecorderCloneBranchesDiverge: a clone shares the recorded actions and
// ledger with its original, and each then records its own branch of actions
// and sends without seeing the other's, whichever side records first. Each
// branch is as long as the original's spare capacity at the clone point, so
// that, through an uncapped shared view, both sides would append into the
// same slots.
func TestRecorderCloneBranchesDiverge(t *testing.T) {
	const prefix = 5
	for _, originalFirst := range []bool{true, false} {
		orig := NewRecorder(2)
		record(orig, prefix, 0)
		send(orig, 0, prefix, 1)
		deliver(orig, 0, prefix, 1)
		branch := cap(orig.actions) - len(orig.actions)
		msgs := cap(orig.ledger) - len(orig.ledger)
		if branch == 0 || msgs == 0 {
			t.Fatal("no spare capacity at the clone point; the test would not exercise sharing")
		}
		clone := orig.Clone()
		grow := func(r *Recorder, id int) {
			record(r, branch, id)
			send(r, prefix, msgs, int64(id)+1)
		}
		if originalFirst {
			grow(orig, 1)
			grow(clone, 2)
		} else {
			grow(clone, 2)
			grow(orig, 1)
		}
		branchOf(t, "original", orig, prefix, branch, 1)
		branchOf(t, "clone", clone, prefix, branch, 2)
		ledgerOf(t, "original", orig.ledger, prefix+msgs, prefix, 2, false)
		ledgerOf(t, "clone", clone.ledger, prefix+msgs, prefix, 3, false)
	}
}

// TestRecorderExecutionCostFlat: a snapshot shares the recorded actions and
// ledger, and a clone copies only the index of messages in flight, so
// neither their allocation counts nor their allocated bytes depend on how
// many actions and messages were recorded. (A copy of 10000 actions or
// ledger records would cost over a megabyte.)
func TestRecorderExecutionCostFlat(t *testing.T) {
	const inFlight = 3
	cost := func(k int, op func(*Recorder)) (allocs, bytes uint64) {
		r := NewRecorder(4)
		record(r, k, 0)
		send(r, 0, k, 1)
		deliver(r, 0, k-inFlight, 1)
		// One processor and a collection first keep the runtime's own
		// allocations out of the count.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			op(r)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, op := range []struct {
		name string
		f    func(*Recorder)
	}{
		{"Execution", func(r *Recorder) { snapshot = r.Execution(nil, nil, rat.Rat{}, nil, nil) }},
		{"Clone", func(r *Recorder) { cloned = r.Clone() }},
	} {
		smallAllocs, smallBytes := cost(10, op.f)
		largeAllocs, largeBytes := cost(10000, op.f)
		if largeAllocs != smallAllocs || largeBytes != smallBytes {
			t.Errorf("%s costs %d allocs / %d B at 10 actions and messages but %d / %d B at 10000",
				op.name, smallAllocs, smallBytes, largeAllocs, largeBytes)
		}
	}
}

// snapshot and cloned keep the measured calls from being optimized away.
var (
	snapshot *Execution
	cloned   *Recorder
)

// msg returns the ledger record of the seq-th message from node 0 to node
// 1, sent at time seq with delay d, and received if delivered.
func msg(seq uint64, d int64, delivered bool) MsgRecord {
	rec := MsgRecord{Key: MsgKey{From: 0, To: 1, Seq: seq}, SendReal: ri(int64(seq)), Delay: ri(d)}
	if delivered {
		rec.RecvReal, rec.Delivered = ri(int64(seq)+d), true
	}
	return rec
}

// send records the sends of messages seq … seq+k−1 with delay d.
func send(r *Recorder, seq uint64, k int, d int64) {
	for j := 0; j < k; j++ {
		r.OnSend(msg(seq+uint64(j), d, false))
	}
}

// deliver records the deliveries of messages seq … seq+k−1 with delay d:
// branches with different delays close the same message differently.
func deliver(r *Recorder, seq uint64, k int, d int64) {
	for j := 0; j < k; j++ {
		r.OnDeliver(msg(seq+uint64(j), d, true))
	}
}

// ledgerOf checks that ledger holds the records of messages 0 … n−1: the
// first ones sent and delivered with delay 1, the rest sent with delay d and
// delivered only if closed.
func ledgerOf(t *testing.T, who string, ledger []MsgRecord, n, first int, d int64, closed bool) {
	t.Helper()
	if len(ledger) != n {
		t.Fatalf("%s: %d ledger records, want %d", who, len(ledger), n)
	}
	for j, rec := range ledger {
		want := msg(uint64(j), 1, true)
		if j >= first {
			want = msg(uint64(j), d, closed)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("%s: ledger record %d is %+v, want %+v", who, j, rec, want)
		}
	}
}

// TestRecorderLedgerCopyOnWrite: a snapshot and a clone taken while
// messages are in flight share the ledger with the recorder. Closing those
// messages on the recorder and on the clone, in either order, copies the
// shared ledger first: the snapshot and the branch not yet delivered keep
// their records, and each branch ends with its own deliveries.
func TestRecorderLedgerCopyOnWrite(t *testing.T) {
	const sent, delivered = 8, 3
	for _, originalFirst := range []bool{true, false} {
		orig := NewRecorder(2)
		send(orig, 0, sent, 1)
		deliver(orig, 0, delivered, 1)
		snap := orig.Execution(nil, nil, rat.Rat{}, nil, nil)
		fork := orig.Clone()
		type branch struct {
			who string
			r   *Recorder
			d   int64
		}
		branches := []branch{{"original", orig, 2}, {"clone", fork, 3}}
		if !originalFirst {
			branches[0], branches[1] = branches[1], branches[0]
		}
		for k, b := range branches {
			deliver(b.r, delivered, sent-delivered, b.d)
			ledgerOf(t, "snapshot", snap.Ledger, sent, delivered, 1, false)
			if k == 0 {
				other := branches[1]
				ledgerOf(t, other.who+" before its deliveries", other.r.ledger, sent, delivered, 1, false)
			}
		}
		for _, b := range branches {
			ledgerOf(t, b.who, b.r.ledger, sent, delivered, b.d, true)
			if len(b.r.inFlight) != 0 {
				t.Fatalf("%s: %d messages still indexed as in flight after every delivery", b.who, len(b.r.inFlight))
			}
		}
	}
}
