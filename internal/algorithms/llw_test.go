package algorithms

import (
	"testing"

	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/rat"
)

func TestLLWValidityAndBoundedIncrease(t *testing.T) {
	n := 8
	rates := make([]rat.Rat, n)
	for i := range rates {
		rates[i] = ri(1)
	}
	rates[0] = rf(5, 4)
	params := DefaultLLWParams()
	e := lineRun(t, LLW(params), n, rates, engine.Midpoint(), ri(60))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	bound := params.FastMult.Mul(rf(3, 2)) // FastMult·(1+ρ)
	for i := 0; i < n; i++ {
		if inc := core.MaxIncreasePerUnit(e, i, rat.Rat{}, e.Duration); inc.Val.Greater(bound) {
			t.Errorf("node %d increase %s exceeds structural bound %s", i, inc.Val, bound)
		}
	}
}

func TestLLWTracksDrift(t *testing.T) {
	// The blocking condition must not prevent global convergence: with a
	// fast head node the chain still follows at bounded distance.
	n := 8
	rates := make([]rat.Rat, n)
	for i := range rates {
		rates[i] = ri(1)
	}
	rates[0] = rf(9, 8) // mild drift: FastMult 2 > 9/8 suffices to follow
	e := lineRun(t, LLW(DefaultLLWParams()), n, rates, engine.Midpoint(), ri(240))
	// Null would put the full 30 = (9/8−1)·240 between nodes 0 and 1. LLW
	// distributes the skew down the staircase: the head's neighbor follows
	// to within a few κ-quanta...
	local := core.LocalSkew(e)
	if local.Skew.GreaterEq(ri(12)) {
		t.Errorf("llw local skew %s too large", local.Skew)
	}
	// ...and node 1 absorbs most of the head's excess.
	if e.LogicalAt(1, ri(240)).Less(ri(255)) {
		t.Errorf("node 1 only reached %s; did not follow the head", e.LogicalAt(1, ri(240)))
	}
}

func TestLLWStaircaseUnderSustainedDrift(t *testing.T) {
	// Under sustained one-end drift the relative-blocking rule settles into
	// a staircase of ≈κ gaps: adjacent skew stays within a few quanta and,
	// crucially, does not grow with time (unlike Null's unbounded drift).
	n := 10
	rates := make([]rat.Rat, n)
	for i := range rates {
		rates[i] = ri(1)
	}
	rates[0] = rf(5, 4)

	short := lineRun(t, LLW(DefaultLLWParams()), n, rates, engine.Midpoint(), ri(60))
	long := lineRun(t, LLW(DefaultLLWParams()), n, rates, engine.Midpoint(), ri(120))
	shortLocal := core.LocalSkew(short).Skew
	longLocal := core.LocalSkew(long).Skew
	// Stable: doubling the horizon must not double the local skew.
	if longLocal.Greater(shortLocal.Mul(rf(3, 2))) {
		t.Errorf("llw local skew grows with time: %s → %s", shortLocal, longLocal)
	}
}

func TestLLWName(t *testing.T) {
	if LLW(DefaultLLWParams()).Name() != "llw" {
		t.Error("wrong name")
	}
}
