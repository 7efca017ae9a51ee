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
			ledgerOf(t, who("original"), orig.ledger, prefix+msgs, prefix, 2)
			ledgerOf(t, who("clone"), clone.ledger, prefix+msgs, prefix, 3)
			ledgerOf(t, who("snapshot"), snap.Ledger, prefix, prefix, 0)
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
// on a clone whose prefix it shares with its original and a snapshot; those
// two keep their records.
func TestRecorderReserveHoldsRun(t *testing.T) {
	const prefix, run = 6, 40
	for _, fromClone := range []bool{false, true} {
		orig := NewRecorder(2)
		record(orig, prefix, 0)
		send(orig, 0, prefix, 1)
		snap := snapshotOf(t, orig)
		r, done := orig.Clone(), prefix
		if !fromClone {
			r, done = NewRecorder(2), 0
		}
		r.Reserve(Size{Actions: run, Messages: run, PerNode: []int{run / 2, run / 2}})
		actions, ledger := base(r.actions), base(r.ledger)
		perNode := []*int{base(r.perNode[0]), base(r.perNode[1])}

		// The rest of the run: actions alternate over the two nodes.
		record(r, run-done, 1)
		send(r, uint64(done), run-done, 2)
		if len(r.actions) != run || len(r.ledger) != run || len(r.perNode[0]) != run/2 || len(r.perNode[1]) != run/2 {
			t.Fatalf("recorded %d actions (%d, %d per node) and %d messages, want the reserved %d (%d per node)",
				len(r.actions), len(r.perNode[0]), len(r.perNode[1]), len(r.ledger), run, run/2)
		}
		if base(r.actions) != actions || base(r.ledger) != ledger || base(r.perNode[0]) != perNode[0] || base(r.perNode[1]) != perNode[1] {
			t.Errorf("clone %v: storage moved within the reserved size", fromClone)
		}
		ledgerOf(t, "recorder", r.ledger, run, done, 2)
		branchOf(t, "original", orig, prefix, 0, 0)
		actionsOf(t, "snapshot", snap.Actions, snap.PerNode, prefix, 0, 0)
		ledgerOf(t, "original", orig.ledger, prefix, prefix, 0)
		ledgerOf(t, "snapshot", snap.Ledger, prefix, prefix, 0)
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

// TestRecorderExecutionCostFlat: a snapshot and a clone share the recorded
// actions and ledger, so neither their allocation counts nor their
// allocated bytes depend on how many actions and messages were recorded.
// (A copy of 10000 actions or ledger records would cost over a megabyte.)
func TestRecorderExecutionCostFlat(t *testing.T) {
	net, scheds := lineAtRate1(t, 4)
	cost := func(k int, op func(*Recorder)) (allocs, bytes uint64) {
		r := NewRecorder(4)
		record(r, k, 0)
		send(r, 0, k, 1)
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
// 1, sent at time seq with delay d: complete at send, as the engine hands
// it to OnSend.
func msg(seq uint64, d int64) MsgRecord {
	return MsgRecord{Key: MsgKey{From: 0, To: 1, Seq: seq}, SendReal: ri(int64(seq)), RecvReal: ri(int64(seq) + d), Delay: ri(d)}
}

// send records the sends of messages seq … seq+k−1 with delay d: branches
// with different delays record the same message differently.
func send(r *Recorder, seq uint64, k int, d int64) {
	for j := 0; j < k; j++ {
		r.OnSend(msg(seq+uint64(j), d))
	}
}

// ledgerOf checks that ledger holds the records of messages 0 … n−1: the
// first ones sent with delay 1, the rest with delay d.
func ledgerOf(t *testing.T, who string, ledger []MsgRecord, n, first int, d int64) {
	t.Helper()
	if len(ledger) != n {
		t.Fatalf("%s: %d ledger records, want %d", who, len(ledger), n)
	}
	for j, rec := range ledger {
		want := msg(uint64(j), 1)
		if j >= first {
			want = msg(uint64(j), d)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("%s: ledger record %d is %+v, want %+v", who, j, rec, want)
		}
	}
}
