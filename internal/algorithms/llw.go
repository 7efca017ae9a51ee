package algorithms

import (
	"gcs/internal/engine"
	"gcs/internal/rat"
)

// LLWParams configures the blocking gradient protocol.
type LLWParams struct {
	// Period between neighbor exchanges, in hardware time.
	Period rat.Rat
	// Kappa is the skew quantum: a node goes fast when its deficit to the
	// most-advanced neighbor exceeds its lead over the most-lagging one by
	// at least κ (maxAhead ≥ maxBehind + κ). Relative comparison is what
	// prevents both the unbounded chain-drag of a pure pull rule and the
	// deadlock of an absolute blocking rule.
	Kappa rat.Rat
	// FastMult is the catch-up multiplier (> 1).
	FastMult rat.Rat
}

// DefaultLLWParams mirrors DefaultGradientParams' aggressiveness.
func DefaultLLWParams() LLWParams {
	return LLWParams{
		Period:   rat.FromInt(1),
		Kappa:    rat.FromInt(1),
		FastMult: rat.FromInt(2),
	}
}

// LLW returns the blocking gradient protocol, a simplified form of the rule
// with which Lenzen, Locher and Wattenhofer later settled the paper's open
// problem (f(d) = Θ(d·log_{1/ρ}(D/d)) gradient skew). The paper itself
// conjectures such an algorithm exists (§9: "We are currently analyzing one
// such candidate algorithm").
//
// Difference from Gradient: Gradient's rule is purely pull-based — a node
// runs fast whenever its best neighbor estimate is far enough ahead,
// regardless of how far its other neighbors lag. LLW compares lead against
// lag (fast iff maxAhead ≥ maxBehind + κ), which propagates back-pressure
// along chains in quantized steps and is the key idea behind the optimal
// gradient bound.
func LLW(params LLWParams) engine.Protocol { return llwProto{params: params} }

type llwProto struct {
	params LLWParams
}

func (p llwProto) Name() string { return "llw" }

func (p llwProto) NewNode(int) engine.Node {
	return &llwNode{params: p.params}
}

// CloneState implements engine.Protocol: the neighbor-estimate table is the
// node's mutable state; it is shared copy-on-write (see estSet.clone), so
// cloning is a single struct copy regardless of degree.
func (p llwProto) CloneState(n engine.Node) engine.Node {
	l := n.(*llwNode)
	return &llwNode{params: l.params, est: l.est.clone(), fast: l.fast}
}

// CloneStates implements engine.BulkCloneProtocol: all clones come out of one
// slab, so a whole-network fork costs two allocations however wide the net.
func (p llwProto) CloneStates(nodes []engine.Node) []engine.Node {
	slab := make([]llwNode, len(nodes))
	out := make([]engine.Node, len(nodes))
	for i, n := range nodes {
		l := n.(*llwNode)
		slab[i] = llwNode{params: l.params, est: l.est.clone(), fast: l.fast}
		out[i] = &slab[i]
	}
	return out
}

type llwNode struct {
	params LLWParams
	est    estSet
	fast   bool
}

func (n *llwNode) Init(rt *engine.Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(n.params.Period), tickTimer)
}

func (n *llwNode) OnTimer(rt *engine.Runtime, _ int) {
	l := rt.Logical()
	for _, j := range rt.Neighbors() {
		rt.Send(j, ValueMsg{Val: l})
	}
	n.adjust(rt)
	rt.SetTimerAtHW(rt.HW().Add(n.params.Period), tickTimer)
}

func (n *llwNode) OnMessage(rt *engine.Runtime, from int, msg engine.Message) {
	m, ok := msg.(ValueMsg)
	if !ok {
		return
	}
	n.est.init(rt)
	n.est.store(from, nbrEst{val: m.Val, atHW: rt.HW(), set: true})
	n.adjust(rt)
}

func (n *llwNode) adjust(rt *engine.Runtime) {
	l := rt.Logical()
	hw := rt.HW()
	var maxAhead, maxBehind rat.Rat
	seen := 0
	for i := range n.est.slots {
		e := &n.est.slots[i]
		if !e.set {
			continue
		}
		seen++
		diff := e.value(hw).Sub(l)
		if diff.Greater(maxAhead) {
			maxAhead = diff
		}
		if diff.Neg().Greater(maxBehind) {
			maxBehind = diff.Neg()
		}
	}
	// Fast mode: the deficit to the front exceeds the lead over the back by
	// at least a quantum.
	wantFast := seen > 0 && maxAhead.GreaterEq(maxBehind.Add(n.params.Kappa))
	if wantFast == n.fast {
		return
	}
	n.fast = wantFast
	mult := rat.FromInt(1)
	if wantFast {
		mult = n.params.FastMult
	}
	rt.SetLogical(l, mult)
}
