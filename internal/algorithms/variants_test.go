package algorithms

import (
	"testing"

	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/rat"
)

func TestBoundedMaxCapsJumps(t *testing.T) {
	n := 6
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1), ri(1)}
	capVal := rf(1, 2)
	e := lineRun(t, BoundedMax(ri(1), capVal), n, rates, engine.Midpoint(), ri(40))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	// No logical jump may exceed the cap.
	for i := 0; i < n; i++ {
		for _, b := range e.Logical[i].Breakpoints() {
			if j := e.Logical[i].JumpAt(b); j.Greater(capVal) {
				t.Errorf("node %d jumps by %s > cap %s at %s", i, j, capVal, b)
			}
		}
	}
	// It still tracks the fast node far better than Null (which would reach
	// skew 20 at this drift/duration).
	if g := core.GlobalSkew(e); g.Skew.GreaterEq(ri(15)) {
		t.Errorf("bounded-max global skew %s too large", g.Skew)
	}
}

func TestBoundedMaxInterpolatesToMaxGossip(t *testing.T) {
	n := 6
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1), ri(1)}
	huge := ri(1000)
	bm := lineRun(t, BoundedMax(ri(1), huge), n, rates, engine.Midpoint(), ri(30))
	mg := lineRun(t, MaxGossip(ri(1)), n, rates, engine.Midpoint(), ri(30))
	// With an unreachable cap, BoundedMax behaves exactly like MaxGossip.
	for i := 0; i < n; i++ {
		if !bm.LogicalAt(i, ri(30)).Equal(mg.LogicalAt(i, ri(30))) {
			t.Errorf("node %d: bounded-max %s != max-gossip %s",
				i, bm.LogicalAt(i, ri(30)), mg.LogicalAt(i, ri(30)))
		}
	}
}

func TestBoundedMaxIncreaseScalesWithCap(t *testing.T) {
	// The Lemma 7.1 ablation: larger caps permit faster unit-window
	// increases (up to what the workload actually demands).
	n := 6
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1), ri(1)}
	measure := func(capVal rat.Rat) rat.Rat {
		e := lineRun(t, BoundedMax(ri(1), capVal), n, rates, engine.Midpoint(), ri(40))
		worst := rat.Rat{}
		for i := 1; i < n; i++ {
			if v := core.MaxIncreasePerUnit(e, i, ri(2), ri(40)).Val; v.Greater(worst) {
				worst = v
			}
		}
		return worst
	}
	small := measure(rf(1, 8))
	large := measure(ri(4))
	if small.Greater(large) {
		t.Errorf("increase with cap 1/8 (%s) exceeds cap 4 (%s)", small, large)
	}
	// Structural bound: rate 1 between jumps, at most ~period⁻¹+1 receipts
	// per unit each jumping ≤ cap, plus the underlying rate.
	if small.Greater(ri(3)) {
		t.Errorf("cap-1/8 increase %s implausibly large", small)
	}
}

func TestRootSyncFollowsRoot(t *testing.T) {
	n := 6
	// Root (node 0) has the fastest clock: everyone converges to it.
	rates := []rat.Rat{rf(5, 4), ri(1), ri(1), ri(1), ri(1), ri(1)}
	e := lineRun(t, RootSync(ri(1), 0), n, rates, engine.Midpoint(), ri(40))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	// Every node ends within a staleness band of the root: the root value
	// needs ~2 hops·(period+delay) to reach node 5.
	for i := 1; i < n; i++ {
		gap := e.LogicalAt(0, ri(40)).Sub(e.LogicalAt(i, ri(40)))
		if gap.Sign() < 0 {
			t.Errorf("node %d ahead of the root", i)
		}
		if gap.Greater(ri(8)) {
			t.Errorf("node %d lags the root by %s", i, gap)
		}
	}
	// The root never adopts others' values: its logical clock is exactly
	// its hardware clock.
	if !e.LogicalAt(0, ri(40)).Equal(e.HWAt(0, ri(40))) {
		t.Error("root's logical clock deviated from its hardware clock")
	}
}

func TestRootSyncIgnoredWhenRootSlow(t *testing.T) {
	// If a non-root node is fastest, its values still propagate (max rule),
	// so global skew stays bounded — but nodes can run ahead of the root.
	n := 5
	rates := []rat.Rat{ri(1), ri(1), rf(5, 4), ri(1), ri(1)}
	e := lineRun(t, RootSync(ri(1), 0), n, rates, engine.Midpoint(), ri(30))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	if e.LogicalAt(2, ri(30)).LessEq(e.LogicalAt(0, ri(30))) {
		t.Error("fast non-root node should be ahead of the root")
	}
}

func TestAllPortfolioIncludesVariants(t *testing.T) {
	names := map[string]bool{}
	for _, p := range All() {
		names[p.Name()] = true
	}
	for _, want := range []string{"bounded-max", "root-sync"} {
		if !names[want] {
			t.Errorf("All() missing %s", want)
		}
	}
	if len(All()) != 7 {
		t.Errorf("All() has %d protocols, want 7", len(All()))
	}
}
