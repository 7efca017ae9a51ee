package algorithms

import (
	"testing"

	"gcs/internal/engine"
	"gcs/internal/rat"
)

// TestCloneStateIndependence: every protocol's CloneState must isolate
// mutable node state — mutating either side after cloning must never leak
// into the other. The estimate-carrying protocols (gradient, llw) share
// their slot pages copy-on-write, so the independence under test here is
// exactly the copy-on-first-write discipline in estSet.
func TestCloneStateIndependence(t *testing.T) {
	one := rat.FromInt(1)
	five := rat.FromInt(5)

	g := Gradient(DefaultGradientParams())
	gn := g.NewNode(0).(*gradientNode)
	gn.est = estSet{nbrs: []int{1, 2}, slots: make([]nbrEst, 2), owned: true}
	gn.est.store(1, nbrEst{val: one, atHW: one, set: true})
	gn.fast = true
	gc := g.CloneState(gn).(*gradientNode)
	if !gc.fast || !gc.est.slots[0].set || !gc.est.slots[0].val.Equal(one) {
		t.Fatalf("gradient clone lost state: %+v", gc)
	}
	if gn.est.owned || gc.est.owned {
		t.Fatal("gradient clone left a side owning the shared page")
	}
	// Writes on the original after cloning must not leak into the clone.
	gn.est.store(2, nbrEst{val: one, atHW: one, set: true})
	gn.est.store(1, nbrEst{val: five, atHW: one, set: true})
	if gc.est.slots[1].set || !gc.est.slots[0].val.Equal(one) {
		t.Fatalf("gradient clone shares the estimate page: %+v", gc.est.slots)
	}
	// ... and writes on the clone must not leak back into the original.
	gc.est.store(1, nbrEst{val: rat.FromInt(9), atHW: one, set: true})
	if !gn.est.slots[0].val.Equal(five) {
		t.Fatalf("gradient original sees the clone's write: %+v", gn.est.slots)
	}

	l := LLW(DefaultLLWParams())
	ln := l.NewNode(0).(*llwNode)
	ln.est = estSet{nbrs: []int{1, 2}, slots: make([]nbrEst, 2), owned: true}
	ln.est.store(1, nbrEst{val: one, atHW: one, set: true})
	lc := l.CloneState(ln).(*llwNode)
	ln.est.store(2, nbrEst{val: one, atHW: one, set: true})
	if lc.est.slots[1].set || !lc.est.slots[0].val.Equal(one) {
		t.Fatalf("llw clone shares the estimate page: %+v", lc.est.slots)
	}
	lc.est.store(1, nbrEst{val: five, atHW: one, set: true})
	if !ln.est.slots[0].val.Equal(one) {
		t.Fatalf("llw original sees the clone's write: %+v", ln.est.slots)
	}

	r := RBS(one, 0)
	rn := r.NewNode(0).(*rbsNode)
	rn.pulse = 7
	rc := r.CloneState(rn).(*rbsNode)
	rn.pulse = 9
	if rc.pulse != 7 {
		t.Fatalf("rbs clone shares the pulse counter: %d", rc.pulse)
	}

	// Whole-portfolio sanity: CloneState returns a node of the same concrete
	// type and never the nil interface.
	protos := append(All(), RBS(one, 0))
	for _, p := range protos {
		n := p.NewNode(0)
		c := p.CloneState(n)
		if c == nil {
			t.Fatalf("%s: CloneState returned nil", p.Name())
		}
		if got, want := nodeType(c), nodeType(n); got != want {
			t.Fatalf("%s: clone type %s, want %s", p.Name(), got, want)
		}
	}
}

func nodeType(n engine.Node) string {
	switch n.(type) {
	case nullNode:
		return "null"
	case *maxNode:
		return "max"
	case *boundedMaxNode:
		return "bounded-max"
	case *gradientNode:
		return "gradient"
	case *llwNode:
		return "llw"
	case *rootSyncNode:
		return "root-sync"
	case *rbsNode:
		return "rbs"
	default:
		return "unknown"
	}
}
