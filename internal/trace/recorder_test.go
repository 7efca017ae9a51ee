package trace

import (
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

// TestRecorderCloneBranchesDiverge: a clone shares the recorded prefix with
// its original, and each then records its own branch without seeing the
// other's, whichever side records first. Each branch is as long as the
// original's spare capacity at the clone point, so that, through an
// uncapped shared view, both sides would append into the same slots.
func TestRecorderCloneBranchesDiverge(t *testing.T) {
	const prefix = 5
	for _, originalFirst := range []bool{true, false} {
		orig := NewRecorder(2)
		record(orig, prefix, 0)
		branch := cap(orig.actions) - len(orig.actions)
		if branch == 0 {
			t.Fatal("no spare capacity at the clone point; the test would not exercise sharing")
		}
		clone := orig.Clone()
		if originalFirst {
			record(orig, branch, 1)
			record(clone, branch, 2)
		} else {
			record(clone, branch, 2)
			record(orig, branch, 1)
		}
		branchOf(t, "original", orig, prefix, branch, 1)
		branchOf(t, "clone", clone, prefix, branch, 2)
	}
}

// TestRecorderExecutionCostFlat: a snapshot shares the recorded actions,
// so neither its allocation count nor its allocated bytes depend on how many
// were recorded. (A copy of 10000 actions would cost over a megabyte.)
func TestRecorderExecutionCostFlat(t *testing.T) {
	cost := func(k int) (allocs, bytes uint64) {
		r := NewRecorder(4)
		record(r, k, 0)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			snapshot = r.Execution(nil, nil, rat.Rat{}, nil, nil)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(10)
	largeAllocs, largeBytes := cost(10000)
	if largeAllocs > smallAllocs || largeBytes > smallBytes+1024 {
		t.Errorf("Execution costs %d allocs / %d B at 10 actions but %d / %d B at 10000",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

// snapshot keeps the measured Execution calls from being optimized away.
var snapshot *Execution
