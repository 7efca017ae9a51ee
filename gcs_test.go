package gcs_test

// Black-box tests of the public facade: everything a downstream user touches
// goes through package gcs.

import (
	"fmt"
	"testing"

	"gcs"
)

func TestPublicQuickstartPath(t *testing.T) {
	net, err := gcs.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := gcs.Run(gcs.Config{
		Net:       net,
		Schedules: gcs.ConstantSchedules(9, gcs.R(1)),
		Adversary: gcs.Midpoint(),
		Protocol:  gcs.Gradient(gcs.DefaultGradientParams()),
		Duration:  gcs.R(20),
		Rho:       gcs.Frac(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gcs.CheckValidity(exec); err != nil {
		t.Fatal(err)
	}
	if g := gcs.GlobalSkew(exec); g.Skew.Sign() < 0 {
		t.Error("negative skew")
	}
	if prof := gcs.SkewProfile(exec); len(prof) != 8 {
		t.Errorf("profile has %d distances, want 8", len(prof))
	}
}

// TestPublicSearchPath: the worst-case adversary hunter through the public
// facade — searched skew must beat the certified two-node Shift bound, and
// the result must replay through the public engine API.
func TestPublicSearchPath(t *testing.T) {
	d := gcs.R(2)
	net, err := gcs.TwoNode(d)
	if err != nil {
		t.Fatal(err)
	}
	proto := gcs.Gradient(gcs.DefaultGradientParams())
	res, err := gcs.Search(gcs.SearchOptions{
		Net:       net,
		Protocol:  proto,
		Duration:  gcs.R(4),
		Rho:       gcs.Frac(1, 2),
		Objective: gcs.ObjectiveGlobalSkew,
	})
	if err != nil {
		t.Fatal(err)
	}
	shift, err := gcs.Shift(proto, d, gcs.DefaultLowerBoundParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Less(shift.Implied) {
		t.Fatalf("searched worst case %s below certified Shift bound %s", res.Best, shift.Implied)
	}
	// Replay the searched adversary through the public engine API.
	scheds := res.Schedules
	skew, err := gcs.NewSkewTracker(net, scheds)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gcs.NewEngine(net,
		gcs.WithProtocol(proto),
		gcs.WithAdversary(res.ReplayAdversary(gcs.Midpoint())),
		gcs.WithSchedules(scheds),
		gcs.WithRho(gcs.Frac(1, 2)),
		gcs.WithObservers(skew),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(gcs.R(4)); err != nil {
		t.Fatal(err)
	}
	if !skew.Global().Skew.Equal(res.Best) {
		t.Fatalf("replay skew %s != searched %s", skew.Global().Skew, res.Best)
	}
}

func TestPublicLowerBoundPath(t *testing.T) {
	p := gcs.DefaultLowerBoundParams()
	res, err := gcs.Shift(gcs.MaxGossip(gcs.R(1)), gcs.R(4), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Separation.Less(gcs.Frac(2, 5)) {
		t.Errorf("separation %s below d/10", res.Separation)
	}
	thm, err := gcs.MainTheorem(gcs.MainTheoremInput{
		Protocol: gcs.MaxGossip(gcs.R(1)),
		Params:   p,
		Branch:   3,
		Rounds:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if thm.AdjacentSkew.Less(thm.PaperTarget) {
		t.Errorf("adjacent skew %s below target %s", thm.AdjacentSkew, thm.PaperTarget)
	}
}

func TestPublicGradientCheck(t *testing.T) {
	net, err := gcs.TwoNode(gcs.R(3))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := gcs.Run(gcs.Config{
		Net:       net,
		Schedules: gcs.ConstantSchedules(2, gcs.R(1)),
		Adversary: gcs.Midpoint(),
		Protocol:  gcs.Null(),
		Duration:  gcs.R(10),
		Rho:       gcs.Frac(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := gcs.CheckGradient(exec, gcs.LinearGradient(gcs.R(1), gcs.R(1)))
	if !rep.OK {
		t.Errorf("identical clocks should satisfy any positive gradient bound: %+v", rep.Worst)
	}
}

func TestPublicWorkloads(t *testing.T) {
	net, err := gcs.Line(7)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := gcs.Run(gcs.Config{
		Net:       net,
		Schedules: gcs.ConstantSchedules(7, gcs.R(1)),
		Adversary: gcs.Midpoint(),
		Protocol:  gcs.MaxGossip(gcs.R(1)),
		Duration:  gcs.R(24),
		Rho:       gcs.Frac(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gcs.FusionConsistency(exec, gcs.BinaryFusionTree(7)); err != nil {
		t.Error(err)
	}
	if _, err := gcs.Tracking(exec, gcs.TrackingConfig{I: 0, J: 3, CrossAt: gcs.R(10), Speed: gcs.R(1)}); err != nil {
		t.Error(err)
	}
	if _, _, err := gcs.TDMAFeasible(exec, gcs.TDMAConfig{Slots: 2, SlotLen: gcs.R(8), Guard: gcs.R(3)}); err != nil {
		t.Error(err)
	}
}

func TestDiverseSchedulesDeterministic(t *testing.T) {
	a, err := gcs.DiverseSchedules(8, gcs.R(1), gcs.Frac(5, 4), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gcs.DiverseSchedules(8, gcs.R(1), gcs.Frac(5, 4), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for i := range a {
		ra := a[i].RateAt(gcs.R(0))
		rb := b[i].RateAt(gcs.R(0))
		if !ra.Equal(rb) {
			t.Fatal("diverse schedules not deterministic")
		}
		if ra.Less(gcs.R(1)) || ra.Greater(gcs.Frac(5, 4)) {
			t.Fatalf("rate %s outside range", ra)
		}
		distinct[ra.Key()] = true
	}
	if len(distinct) < 2 {
		t.Error("diverse schedules produced a single rate")
	}
}

func ExampleShift() {
	res, err := gcs.Shift(gcs.MaxGossip(gcs.R(1)), gcs.R(10), gcs.DefaultLowerBoundParams())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("two indistinguishable executions, skews %s and %s\n", res.SkewAlpha, res.SkewBeta)
	// Output: two indistinguishable executions, skews 0 and 2
}
