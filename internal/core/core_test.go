package core

import (
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

// synthExec builds a 3-node line execution with hand-made logical clocks.
func synthExec(t *testing.T, logical []*piecewise.PLF, dur rat.Rat) *trace.Execution {
	t.Helper()
	net, err := network.Line(len(logical))
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, len(logical))
	hw := make([]*piecewise.PLF, len(logical))
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
		hw[i] = scheds[i].HWFunc()
	}
	return &trace.Execution{
		Net:       net,
		Schedules: scheds,
		Duration:  dur,
		Logical:   logical,
		Hardware:  hw,
		PerNode:   make([][]int, len(logical)),
	}
}

func TestCheckValidityOK(t *testing.T) {
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, rat.Rat{}, rf(1, 2)) // exactly the bound
	l2 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	_ = l2.Append(ri(5), ri(10), ri(1)) // upward jump: allowed
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))
	if err := CheckValidity(e); err != nil {
		t.Errorf("validity should hold: %v", err)
	}
}

func TestCheckValiditySlowRate(t *testing.T) {
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	_ = l1.AppendSlope(ri(3), rf(1, 3)) // rate 1/3 < 1/2
	l2 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))
	if err := CheckValidity(e); err == nil {
		t.Error("rate 1/3 should violate validity")
	}
}

func TestCheckValidityDownwardJump(t *testing.T) {
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	_ = l1.Append(ri(4), ri(2), ri(1)) // jumps down from 4 to 2
	l2 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))
	if err := CheckValidity(e); err == nil {
		t.Error("downward jump should violate validity")
	}
}

func TestCheckGradient(t *testing.T) {
	// Node 1 runs 1 ahead of node 0 and 3 ahead of node 2 at the end.
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, ri(1), ri(1))
	l2 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	_ = l2.Append(ri(5), ri(3), ri(1)) // jumps to catch up? makes skew vary
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))

	// Generous bound: f(d) = 10 + 10d.
	rep := CheckGradient(e, LinearGradient(ri(10), ri(10)))
	if !rep.OK {
		t.Errorf("generous bound should pass, worst %+v", rep.Worst)
	}
	if rep.Checked != 3 {
		t.Errorf("checked %d pairs, want 3", rep.Checked)
	}

	// Tight bound f(d) = 1/2: must fail, worst pair identified.
	rep = CheckGradient(e, LinearGradient(rf(1, 2), rat.Rat{}))
	if rep.OK {
		t.Error("tight bound should fail")
	}
	if rep.Worst.Skew.LessEq(rf(1, 2)) {
		t.Errorf("worst skew %s should exceed bound", rep.Worst.Skew)
	}
}

func TestGlobalAndLocalSkew(t *testing.T) {
	// L0 = t, L1 = t+1, L2 = t+5: global worst is (0,2) with 5; local worst
	// among distance-1 pairs is (1,2) with 4.
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, ri(1), ri(1))
	l2 := piecewise.New(rat.Rat{}, ri(5), ri(1))
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))

	g := GlobalSkew(e)
	if g.I != 0 || g.J != 2 || !g.Skew.Equal(ri(5)) {
		t.Errorf("GlobalSkew = %+v, want pair (0,2) skew 5", g)
	}
	l := LocalSkew(e)
	if l.I != 1 || l.J != 2 || !l.Skew.Equal(ri(4)) {
		t.Errorf("LocalSkew = %+v, want pair (1,2) skew 4", l)
	}
}

func TestSkewProfile(t *testing.T) {
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, ri(1), ri(1))
	l2 := piecewise.New(rat.Rat{}, ri(5), ri(1))
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))
	prof := SkewProfile(e)
	if len(prof) != 2 {
		t.Fatalf("profile has %d distances, want 2", len(prof))
	}
	if !prof[0].Dist.Equal(ri(1)) || prof[0].Pairs != 2 || !prof[0].MaxSkew.Equal(ri(4)) {
		t.Errorf("profile[1] = %+v, want d=1 pairs=2 skew=4", prof[0])
	}
	if !prof[1].Dist.Equal(ri(2)) || prof[1].Pairs != 1 || !prof[1].MaxSkew.Equal(ri(5)) {
		t.Errorf("profile[2] = %+v, want d=2 pairs=1 skew=5", prof[1])
	}
}

func TestMaxIncreasePerUnit(t *testing.T) {
	// L = t with a +7 jump at t=5: max over any unit window is 8.
	l0 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	l1 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	_ = l1.Append(ri(5), ri(12), ri(1))
	l2 := piecewise.New(rat.Rat{}, rat.Rat{}, ri(1))
	e := synthExec(t, []*piecewise.PLF{l0, l1, l2}, ri(10))

	got := MaxIncreasePerUnit(e, 1, rat.Rat{}, ri(10))
	if !got.Val.Equal(ri(8)) {
		t.Errorf("MaxIncreasePerUnit = %s, want 8", got.Val)
	}
	// Plain linear clock: exactly 1.
	got = MaxIncreasePerUnit(e, 0, rat.Rat{}, ri(10))
	if !got.Val.Equal(ri(1)) {
		t.Errorf("MaxIncreasePerUnit(linear) = %s, want 1", got.Val)
	}
	// Window shorter than 1: zero extremum.
	got = MaxIncreasePerUnit(e, 0, ri(0), rf(1, 2))
	if !got.Val.IsZero() {
		t.Errorf("short window = %s, want 0", got.Val)
	}
}

func TestLinearGradient(t *testing.T) {
	f := LinearGradient(ri(2), ri(3))
	if got := f(ri(4)); !got.Equal(ri(14)) {
		t.Errorf("f(4) = %s, want 14", got)
	}
}
