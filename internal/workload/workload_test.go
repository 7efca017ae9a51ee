package workload

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

func runLine(t *testing.T, proto engine.Protocol, n int, fastNode int, dur rat.Rat) *trace.Execution {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	if fastNode >= 0 {
		scheds[fastNode] = clock.Constant(rf(5, 4))
	}
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  proto,
		Duration:  dur,
		Rho:       rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestBinaryFusionTree(t *testing.T) {
	parent := BinaryFusionTree(7)
	want := []int{-1, 0, 0, 1, 1, 2, 2}
	for i := range want {
		if parent[i] != want[i] {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], want[i])
		}
	}
}

func TestFusionConsistency(t *testing.T) {
	e := runLine(t, algorithms.Gradient(algorithms.DefaultGradientParams()), 7, 0, ri(30))
	rep, err := FusionConsistency(e, BinaryFusionTree(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 3 {
		t.Errorf("groups = %d, want 3", rep.Groups)
	}
	if rep.Worst.MaxSkew.Greater(rep.GlobalSkew) {
		t.Errorf("sibling skew %s exceeds global %s", rep.Worst.MaxSkew, rep.GlobalSkew)
	}
}

func TestFusionConsistencyValidation(t *testing.T) {
	e := runLine(t, algorithms.Null(), 3, -1, ri(5))
	if _, err := FusionConsistency(e, []int{-1, 0}); err == nil {
		t.Error("short parent vector should error")
	}
	if _, err := FusionConsistency(e, []int{-1, 1, 0}); err == nil {
		t.Error("self-parent should error")
	}
}

func TestTrackingPerfectClocks(t *testing.T) {
	// Null protocol with identical rate-1 clocks: no skew, perfect estimate.
	e := runLine(t, algorithms.Null(), 5, -1, ri(20))
	rep, err := Tracking(e, TrackingConfig{I: 0, J: 4, CrossAt: ri(2), Speed: ri(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MeasuredDT.Equal(rep.TrueDT) {
		t.Errorf("measured %s != true %s with perfect clocks", rep.MeasuredDT, rep.TrueDT)
	}
	if rep.ErrPct != 0 {
		t.Errorf("error %f%% with perfect clocks", rep.ErrPct)
	}
}

func TestTrackingSkewedClocks(t *testing.T) {
	// Null protocol, sensor J's clock runs fast: the measured interval is
	// inflated and the speed underestimated. Error shrinks with distance —
	// the paper's gradient motivation.
	n := 9
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	scheds[0] = clock.Constant(rf(9, 8)) // sensor 0 fast
	e, err := engine.Run(engine.Config{
		Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
		Protocol: algorithms.Null(), Duration: ri(40), Rho: rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same skew source (node 0), increasing distances.
	nearRep, err := Tracking(e, TrackingConfig{I: 0, J: 1, CrossAt: ri(8), Speed: rf(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	farRep, err := Tracking(e, TrackingConfig{I: 0, J: 8, CrossAt: ri(8), Speed: rf(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if nearRep.ErrPct <= farRep.ErrPct {
		t.Errorf("near error %f%% should exceed far error %f%% for the same skew source",
			nearRep.ErrPct, farRep.ErrPct)
	}
}

func TestTrackingValidation(t *testing.T) {
	e := runLine(t, algorithms.Null(), 3, -1, ri(5))
	cases := []TrackingConfig{
		{I: 0, J: 0, CrossAt: ri(1), Speed: ri(1)},
		{I: 0, J: 1, CrossAt: ri(1), Speed: rat.Rat{}},
		{I: 0, J: 2, CrossAt: ri(4), Speed: ri(1)}, // transit exceeds duration
	}
	for i, cfg := range cases {
		if _, err := Tracking(e, cfg); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestTDMAPerfectClocks(t *testing.T) {
	e := runLine(t, algorithms.Null(), 6, -1, ri(24))
	cfg := TDMAConfig{Slots: 3, SlotLen: ri(2), Guard: rf(1, 2)}
	rep, err := TDMA(e, cfg, rf(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Errorf("perfect clocks should have no collisions, got %d", rep.Violations)
	}
	ok, worst, err := TDMAFeasible(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("perfect clocks should be feasible (worst skew %s)", worst)
	}
}

func TestTDMASkewBreaksSchedule(t *testing.T) {
	// Null protocol with a fast node: same-slot interferers drift apart
	// until their transmissions overlap.
	n := 7
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	// Nodes 2 and 4? slots with Slots=2: interferers at distance 2 share a
	// slot. Make node 2 fast so (2,4) diverge.
	scheds[2] = clock.Constant(rf(5, 4))
	e, err := engine.Run(engine.Config{
		Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
		Protocol: algorithms.Null(), Duration: ri(40), Rho: rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TDMAConfig{Slots: 2, SlotLen: ri(2), Guard: rf(1, 2)}
	ok, worst, err := TDMAFeasible(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("drifting null clocks should break TDMA (worst skew %s)", worst)
	}
	rep, err := TDMA(e, cfg, rf(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Error("sampled TDMA found no collisions despite infeasibility")
	}
}

func TestTDMAValidation(t *testing.T) {
	e := runLine(t, algorithms.Null(), 3, -1, ri(5))
	bad := []TDMAConfig{
		{Slots: 1, SlotLen: ri(1), Guard: rf(1, 4)},
		{Slots: 3, SlotLen: rat.Rat{}, Guard: rat.Rat{}},
		{Slots: 3, SlotLen: ri(1), Guard: ri(2)},
	}
	for i, cfg := range bad {
		if _, err := TDMA(e, cfg, ri(1)); err == nil {
			t.Errorf("config %d should error", i)
		}
	}
	if _, err := TDMA(e, TDMAConfig{Slots: 2, SlotLen: ri(1), Guard: rf(1, 4)}, rat.Rat{}); err == nil {
		t.Error("zero step should error")
	}
}
