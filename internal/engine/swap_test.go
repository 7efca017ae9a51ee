package engine

import (
	"fmt"
	"strings"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// swapTestScheds builds n constant-rate-1 schedules plus a variant of node
// `node` whose rates inside [from, to) are pinned to `pin`.
func swapTestScheds(t *testing.T, n, node int, from, to, pin rat.Rat) (base, swapped []*clock.Schedule) {
	t.Helper()
	base = make([]*clock.Schedule, n)
	for i := range base {
		base[i] = clock.Constant(ri(1))
	}
	s, err := base[node].ModifyWindow(from, to, func(rat.Rat) rat.Rat { return pin })
	if err != nil {
		t.Fatal(err)
	}
	swapped = append([]*clock.Schedule(nil), base...)
	swapped[node] = s
	return base, swapped
}

// TestSwapScheduleMatchesFreshRun: fork a trunk just before the mutated
// window opens, swap the schedule in, and drive the fork in lockstep with a
// fresh engine built on the swapped set from time zero — every dispatch must
// land on the same instant, and the queued timers (hardware targets) must
// re-derive to exactly the fresh run's firing times. (The cross-protocol
// byte-identical matrix lives in the root package's fork_test.go.)
func TestSwapScheduleMatchesFreshRun(t *testing.T) {
	from := ri(3)
	base, swappedSet := swapTestScheds(t, 3, 1, from, ri(6), rf(3, 2))
	fresh := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(swappedSet))
	trunk := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(base))
	for {
		nt, ok := trunk.NextEventTime()
		if !ok || !nt.Less(from) {
			break
		}
		if _, err := trunk.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.SwapSchedule(1, swappedSet[1]); err != nil {
		t.Fatal(err)
	}
	// Lockstep to the horizon: the prefix replays on the fresh engine, then
	// both dispatch the re-derived suffix.
	for fresh.Steps() < fork.Steps() {
		if ok, err := fresh.Step(); err != nil || !ok {
			t.Fatalf("fresh prefix replay: ok=%v err=%v", ok, err)
		}
	}
	for {
		fOK, err := fork.Step()
		if err != nil {
			t.Fatal(err)
		}
		gOK, err := fresh.Step()
		if err != nil {
			t.Fatal(err)
		}
		if fOK != gOK {
			t.Fatalf("fork ok=%v, fresh ok=%v at step %d", fOK, gOK, fork.Steps())
		}
		if !fOK {
			break
		}
		if !fork.Now().Equal(fresh.Now()) {
			t.Fatalf("step %d: fork at %s, fresh at %s", fork.Steps(), fork.Now(), fresh.Now())
		}
		if fork.Steps() > 200 {
			break // both engines agree over a long window; stop the unbounded tick run
		}
	}
}

// TestSwapScheduleErrors: every precondition fails loudly — invalid node,
// nil schedule, drift-bound violation, divergence before Now(), and a
// poisoned engine — and a successful swap counts in the metrics.
func TestSwapScheduleErrors(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	base, swappedSet := swapTestScheds(t, 3, 1, ri(3), ri(6), rf(3, 2))
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(base), WithMetrics(met))
	if err := eng.RunUntil(ri(2)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		node int
		s    *clock.Schedule
		want string
	}{
		{"invalid node", 7, swappedSet[1], "invalid node"},
		{"nil schedule", 1, nil, "nil schedule"},
		{"drift violation", 1, clock.Constant(ri(3)), "drift"},
		{"pre-now divergence", 1, clock.Constant(rf(5, 4)), "diverges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := eng.SwapSchedule(tc.node, tc.s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	if met.ScheduleSwaps.Value() != 0 {
		t.Fatalf("rejected swaps counted: %d", met.ScheduleSwaps.Value())
	}
	if err := eng.SwapSchedule(1, swappedSet[1]); err != nil {
		t.Fatal(err)
	}
	if met.ScheduleSwaps.Value() != 1 {
		t.Fatalf("ScheduleSwaps = %d, want 1", met.ScheduleSwaps.Value())
	}

	bad := newTestEngine(t, 2, selfSendProtocol{})
	if _, err := bad.Step(); err == nil {
		t.Fatal("self-send did not fail the run")
	}
	if err := bad.SwapSchedule(0, clock.Constant(ri(1))); err == nil || !strings.Contains(err.Error(), "failed engine") {
		t.Fatalf("swap on poisoned engine: %v", err)
	}
}

// TestSwapScheduleCopiesOnWrite: swapping a fork's schedule never leaks into
// the trunk it was forked from — the schedule slices are shared by reference
// at fork time and must be copied before mutation.
func TestSwapScheduleCopiesOnWrite(t *testing.T) {
	base, swappedSet := swapTestScheds(t, 3, 1, ri(3), ri(6), rf(3, 2))
	trunk := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(base))
	if err := trunk.RunUntil(ri(2)); err != nil {
		t.Fatal(err)
	}
	fork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.SwapSchedule(1, swappedSet[1]); err != nil {
		t.Fatal(err)
	}
	if trunk.scheds[1] != base[1] {
		t.Fatal("swap on the fork replaced the trunk's schedule")
	}
	if fork.scheds[1] != swappedSet[1] {
		t.Fatal("swap did not take on the fork")
	}
}

// TestSwapScheduleOffGridKeepsLane: a swapped schedule whose rates do not fit
// the detected tick grid leaves only its node's compiled slot empty. The
// engine keeps its grid, the node's readings and timer times fall back to
// rationals one by one (counted in FixedFallbacks), and the run — actions,
// ledger and compiled clocks — is the one a fresh rat-lane engine produces on
// the swapped set.
func TestSwapScheduleOffGridKeepsLane(t *testing.T) {
	base, _ := swapTestScheds(t, 3, 1, ri(3), ri(6), rf(3, 2))
	// An in-drift rate with a huge denominator: off any detected scale.
	offGrid, err := base[1].ModifyWindow(ri(3), ri(6), func(rat.Rat) rat.Rat {
		return rat.MustFrac(1000003, 1000002)
	})
	if err != nil {
		t.Fatal(err)
	}
	swappedSet := append([]*clock.Schedule(nil), base...)
	swappedSet[1] = offGrid
	run := func(eng *Engine, rec *trace.Recorder) *trace.Execution {
		t.Helper()
		if err := eng.RunUntil(ri(8)); err != nil {
			t.Fatal(err)
		}
		exec, err := eng.Execution(rec)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}

	met := NewMetrics(obs.NewRegistry())
	rec := trace.NewRecorder(3)
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(base), WithMetrics(met), WithObservers(rec))
	scale := eng.FixedScale()
	if scale == 0 {
		t.Fatal("fixed lane not engaged on rate-1 schedules")
	}
	if err := eng.RunUntil(ri(2)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapSchedule(1, offGrid); err != nil {
		t.Fatal(err)
	}
	if eng.FixedScale() != scale || eng.TimeLane() != "fixed" {
		t.Fatalf("off-grid swap left the grid: %s lane, scale %d (was %d)", eng.TimeLane(), eng.FixedScale(), scale)
	}
	for i, f := range eng.fscheds {
		if (f == nil) != (i == 1) {
			t.Fatalf("compiled slot %d nil = %v after swapping node 1 off the grid", i, f == nil)
		}
	}
	before := met.FixedFallbacks.Value()
	got := run(eng, rec)
	if met.FixedFallbacks.Value() <= before {
		t.Fatalf("FixedFallbacks stayed at %d after the off-grid swap", before)
	}

	freshRec := trace.NewRecorder(3)
	fresh := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithSchedules(swappedSet), WithLane(LaneRat), WithObservers(freshRec))
	want := run(fresh, freshRec)
	sameRun(t, want, got)
}

// sameRun fails unless a and b hold the same actions, the same ledger and
// the same compiled clocks, compared on their canonical printed values.
func sameRun(t *testing.T, a, b *trace.Execution) {
	t.Helper()
	lines := func(x *trace.Execution) []string {
		var out []string
		for _, act := range x.Actions {
			out = append(out, fmt.Sprintf("action %+v", act))
		}
		for _, m := range x.Ledger {
			out = append(out, fmt.Sprintf("message %+v", m))
		}
		for i := range x.Logical {
			out = append(out, fmt.Sprintf("node %d: logical %v, hardware %v", i, x.Logical[i].Segs(), x.Schedules[i].Rates()))
		}
		return out
	}
	la, lb := lines(a), lines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("%s\nvs\n%s", la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("%d actions, messages and clocks vs %d", len(la), len(lb))
	}
}
