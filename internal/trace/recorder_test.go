package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
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
	actionsOf(t, who, r.actions, r.perNode, n, k, id)
}

// actionsOf checks that actions and their per-node indices hold the shared
// prefix of n actions (TimerID 0) followed by exactly k of branch id.
func actionsOf(t *testing.T, who string, actions []Action, perNode [][]int, n, k, id int) {
	t.Helper()
	if len(actions) != n+k {
		t.Fatalf("%s: %d actions, want %d", who, len(actions), n+k)
	}
	for j, a := range actions {
		want := 0
		if j >= n {
			want = id
		}
		if a.TimerID != want {
			t.Fatalf("%s: action %d is from branch %d, want %d", who, j, a.TimerID, want)
		}
	}
	total := 0
	for i, idxs := range perNode {
		for _, x := range idxs {
			if x >= len(actions) || actions[x].Node != i {
				t.Fatalf("%s: node %d index %d does not name one of its actions", who, i, x)
			}
		}
		total += len(idxs)
	}
	if total != n+k {
		t.Fatalf("%s: per-node indices cover %d actions, want %d", who, total, n+k)
	}
}

// declare records k declarations of every node of r, at real times
// 0 … k−1, each with value id: branches with different ids declare
// different clocks.
func declare(r *Recorder, k, id int) {
	for i := range r.decls {
		for j := 0; j < k; j++ {
			r.OnDeclare(Decl{Node: i, Real: ri(int64(j)), HW0: ri(int64(j)), Value: ri(int64(id)), Mult: ri(1)})
		}
	}
}

// declsOf checks that every node of r holds the starting declaration, then
// n declarations of value 0 and exactly k of its own branch id.
func declsOf(t *testing.T, who string, r *Recorder, n, k, id int) {
	t.Helper()
	for i, ds := range r.decls {
		if len(ds) != 1+n+k {
			t.Fatalf("%s: node %d has %d declarations, want %d", who, i, len(ds), 1+n+k)
		}
		if ds[0] != StartDecl(i) {
			t.Fatalf("%s: node %d starts with %+v, want L = H", who, i, ds[0])
		}
		for j, d := range ds[1:] {
			want := ri(0)
			if j >= n {
				want = ri(int64(id))
			}
			if d.Node != i || !d.Value.Equal(want) {
				t.Fatalf("%s: node %d declaration %d is %+v, want node %d value %s", who, i, j+1, d, i, want)
			}
		}
	}
}

// TestRecorderCloneBranchesDiverge: a clone shares the recorded actions,
// declarations and ledger with its original and a snapshot, and each
// recorder then records its own branch of actions, declarations and sends
// without seeing the other's, whichever side records first, and whichever
// side (if any) first reserves room for its branch. The snapshot keeps the
// prefix. Each branch is as long as the original's spare capacity at the
// clone point, so that, through an uncapped shared view, both sides would
// append into the same slots.
func TestRecorderCloneBranchesDiverge(t *testing.T) {
	const prefix = 5
	for _, reserver := range []string{"neither", "original", "clone"} {
		for _, originalFirst := range []bool{true, false} {
			orig := NewRecorder(2)
			record(orig, prefix, 0)
			declare(orig, prefix, 0)
			send(orig, 0, prefix, 1)
			deliver(orig, 0, prefix, 1)
			branch := cap(orig.actions) - len(orig.actions)
			msgs := cap(orig.ledger) - len(orig.ledger)
			decls := cap(orig.decls[0]) - len(orig.decls[0])
			if branch == 0 || msgs == 0 || decls == 0 {
				t.Fatal("no spare capacity at the clone point; the test would not exercise sharing")
			}
			snap := snapshotOf(t, orig)
			clone := orig.Clone()
			switch reserver {
			case "original":
				orig.Reserve(room(orig, 2*branch))
			case "clone":
				clone.Reserve(room(clone, 2*branch))
			}
			grow := func(r *Recorder, id int) {
				record(r, branch, id)
				declare(r, decls, id)
				send(r, prefix, msgs, int64(id)+1)
			}
			if originalFirst {
				grow(orig, 1)
				grow(clone, 2)
			} else {
				grow(clone, 2)
				grow(orig, 1)
			}
			who := func(r string) string { return fmt.Sprintf("%s (%s reserved)", r, reserver) }
			branchOf(t, who("original"), orig, prefix, branch, 1)
			branchOf(t, who("clone"), clone, prefix, branch, 2)
			actionsOf(t, who("snapshot"), snap.Actions, snap.PerNode, prefix, 0, 0)
			declsOf(t, who("original"), orig, prefix, decls, 1)
			declsOf(t, who("clone"), clone, prefix, decls, 2)
			ledgerOf(t, who("original"), orig.ledger, prefix+msgs, prefix, 2, false)
			ledgerOf(t, who("clone"), clone.ledger, prefix+msgs, prefix, 3, false)
			ledgerOf(t, who("snapshot"), snap.Ledger, prefix, prefix, 0, false)
		}
	}
}

// room returns the Size of r's recording so far plus k more actions on
// every node and k more messages.
func room(r *Recorder, k int) Size {
	s := Size{Actions: len(r.actions) + k*len(r.perNode), Messages: len(r.ledger) + k, PerNode: make([]int, len(r.perNode))}
	for i, idxs := range r.perNode {
		s.PerNode[i] = len(idxs) + k
	}
	return s
}

// base returns the address of the storage behind s, which must have
// capacity: it changes exactly when s moves.
func base[E any](s []E) *E { return &s[:cap(s)][0] }

// TestRecorderReserveHoldsRun: after Reserve(s), recording a run of size s
// moves none of the recorder's storage. That holds on a fresh recorder and
// on a clone whose prefix, some of it still in flight, it shares with its
// original and a snapshot; those two keep their records.
func TestRecorderReserveHoldsRun(t *testing.T) {
	const prefix, delivered, run = 6, 3, 40
	for _, fromClone := range []bool{false, true} {
		orig := NewRecorder(2)
		record(orig, prefix, 0)
		send(orig, 0, prefix, 1)
		deliver(orig, 0, delivered, 1)
		snap := snapshotOf(t, orig)
		r, done, first := orig.Clone(), prefix, delivered
		if !fromClone {
			r, done, first = NewRecorder(2), 0, 0
		}
		r.Reserve(Size{Actions: run, Messages: run, PerNode: []int{run / 2, run / 2}})
		actions, ledger := base(r.actions), base(r.ledger)
		perNode := []*int{base(r.perNode[0]), base(r.perNode[1])}

		// The rest of the run: actions alternate over the two nodes, and
		// every message is delivered.
		record(r, run-done, 1)
		if fromClone {
			deliver(r, delivered, prefix-delivered, 2)
		}
		send(r, uint64(done), run-done, 2)
		deliver(r, uint64(done), run-done, 2)
		if len(r.actions) != run || len(r.ledger) != run || len(r.perNode[0]) != run/2 || len(r.perNode[1]) != run/2 {
			t.Fatalf("recorded %d actions (%d, %d per node) and %d messages, want the reserved %d (%d per node)",
				len(r.actions), len(r.perNode[0]), len(r.perNode[1]), len(r.ledger), run, run/2)
		}
		if base(r.actions) != actions || base(r.ledger) != ledger || base(r.perNode[0]) != perNode[0] || base(r.perNode[1]) != perNode[1] {
			t.Errorf("clone %v: storage moved within the reserved size", fromClone)
		}
		ledgerOf(t, "recorder", r.ledger, run, first, 2, true)
		branchOf(t, "original", orig, prefix, 0, 0)
		actionsOf(t, "snapshot", snap.Actions, snap.PerNode, prefix, 0, 0)
		ledgerOf(t, "original", orig.ledger, prefix, delivered, 1, false)
		ledgerOf(t, "snapshot", snap.Ledger, prefix, delivered, 1, false)
	}
}

// lineAtRate1 returns an n-node line whose hardware clocks all run at
// rate 1: an environment to snapshot recorders in.
func lineAtRate1(t *testing.T, n int) (*network.Network, []*clock.Schedule) {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	return net, scheds
}

// snapshotOf returns r's Execution through real time 0 over a line of its
// nodes at rate 1.
func snapshotOf(t *testing.T, r *Recorder) *Execution {
	t.Helper()
	net, scheds := lineAtRate1(t, len(r.decls))
	exec, err := r.Execution(net, scheds, ri(0))
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestRecorderExecutionCostFlat: a snapshot shares the recorded actions and
// ledger, and a clone copies only the index of messages in flight, so
// neither their allocation counts nor their allocated bytes depend on how
// many actions and messages were recorded. (A copy of 10000 actions or
// ledger records would cost over a megabyte.)
func TestRecorderExecutionCostFlat(t *testing.T) {
	const inFlight = 3
	net, scheds := lineAtRate1(t, 4)
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
		{"Execution", func(r *Recorder) { snapshot, _ = r.Execution(net, scheds, ri(0)) }},
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
// shared ledger first, as does reserving room past the ledger's capacity on
// either side first; a reservation within it copies nothing, and the
// deliveries still do. The snapshot and the branch not yet delivered keep
// their records, and each branch ends with its own deliveries.
func TestRecorderLedgerCopyOnWrite(t *testing.T) {
	const sent, delivered = 8, 3
	type reservation struct {
		who   string
		extra int // messages past those recorded
	}
	for _, res := range []reservation{{"neither", 0}, {"original", 0}, {"original", sent}, {"clone", 0}, {"clone", sent}} {
		for _, originalFirst := range []bool{true, false} {
			orig := NewRecorder(2)
			send(orig, 0, sent, 1)
			deliver(orig, 0, delivered, 1)
			snap := snapshotOf(t, orig)
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
			for _, b := range branches {
				if b.who == res.who {
					b.r.Reserve(room(b.r, res.extra))
				}
			}
			who := func(r string) string { return fmt.Sprintf("%s (%s reserved %d more)", r, res.who, res.extra) }
			for k, b := range branches {
				deliver(b.r, delivered, sent-delivered, b.d)
				ledgerOf(t, who("snapshot"), snap.Ledger, sent, delivered, 1, false)
				if k == 0 {
					other := branches[1]
					ledgerOf(t, who(other.who+" before its deliveries"), other.r.ledger, sent, delivered, 1, false)
				}
			}
			for _, b := range branches {
				ledgerOf(t, who(b.who), b.r.ledger, sent, delivered, b.d, true)
				if len(b.r.inFlight) != 0 {
					t.Fatalf("%s: %d messages still indexed as in flight after every delivery", who(b.who), len(b.r.inFlight))
				}
			}
		}
	}
}

// TestRecorderCloneCopiesLedgerOnce: a clone's ledger is capped at the
// clone point, so its first write moves it into storage of its own, whether
// that write is a send or a delivery into the shared prefix. That storage
// has room to grow: closing every message still in flight and sending as
// many again as the prefix holds moves it no more. The original and a
// snapshot taken before the clone keep their records.
func TestRecorderCloneCopiesLedgerOnce(t *testing.T) {
	const sent, delivered = 8, 3
	for _, sendFirst := range []bool{true, false} {
		orig := NewRecorder(2)
		send(orig, 0, sent, 1)
		deliver(orig, 0, delivered, 1)
		snap := snapshotOf(t, orig)
		clone := orig.Clone()
		// A write is a send, or the delivery of a record marked delivered.
		var sends, deliveries []MsgRecord
		for seq := uint64(sent); seq < 2*sent; seq++ {
			sends = append(sends, msg(seq, 2, false))
		}
		for seq := uint64(delivered); seq < sent; seq++ {
			deliveries = append(deliveries, msg(seq, 2, true))
		}
		writes := append(deliveries, sends...)
		if sendFirst {
			writes = append(sends, deliveries...)
		}
		at, moves := base(clone.ledger), 0
		for _, rec := range writes {
			if rec.Delivered {
				clone.OnDeliver(rec)
			} else {
				clone.OnSend(rec)
			}
			if b := base(clone.ledger); b != at {
				at, moves = b, moves+1
			}
		}
		if moves != 1 {
			t.Errorf("send first %v: the clone's ledger moved %d times, want once", sendFirst, moves)
		}
		deliver(clone, sent, sent, 2)
		ledgerOf(t, "clone", clone.ledger, 2*sent, delivered, 2, true)
		ledgerOf(t, "original", orig.ledger, sent, delivered, 1, false)
		ledgerOf(t, "snapshot", snap.Ledger, sent, delivered, 1, false)
	}
}
