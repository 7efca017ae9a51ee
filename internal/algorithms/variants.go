package algorithms

import (
	"gcs/internal/engine"
	"gcs/internal/rat"
)

// ---- BoundedMax ----

// BoundedMax is MaxGossip with the jump size capped: on receipt of a larger
// value, the clock moves forward by at most `cap`.
//
// It is the natural ablation point for the Bounded Increase lemma: its
// maximum increase per unit time is roughly cap × (receipts per unit), so
// sweeping cap interpolates between the gradient algorithm's bounded
// behaviour (small cap) and MaxGossip's unbounded jumps (cap = ∞) — and the
// Lemma 7.1 probe shows the implied f(1) growing with cap.
func BoundedMax(period, jumpCap rat.Rat) engine.Protocol {
	return boundedMaxProto{period: period, cap: jumpCap}
}

type boundedMaxProto struct {
	period rat.Rat
	cap    rat.Rat
}

func (p boundedMaxProto) Name() string { return "bounded-max" }

func (p boundedMaxProto) NewNode(int) engine.Node {
	return &boundedMaxNode{period: p.period, cap: p.cap}
}

// CloneState implements engine.Protocol. A boundedMaxNode carries only
// immutable configuration, so forks share the automaton itself.
func (p boundedMaxProto) CloneState(n engine.Node) engine.Node { return n }

type boundedMaxNode struct {
	period rat.Rat
	cap    rat.Rat
}

func (n *boundedMaxNode) Init(rt *engine.Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *boundedMaxNode) OnTimer(rt *engine.Runtime, _ int) {
	l := rt.Logical()
	for _, j := range rt.Neighbors() {
		rt.Send(j, ValueMsg{Val: l})
	}
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *boundedMaxNode) OnMessage(rt *engine.Runtime, _ int, msg engine.Message) {
	m, ok := msg.(ValueMsg)
	if !ok {
		return
	}
	l := rt.Logical()
	if !m.Val.Greater(l) {
		return
	}
	target := rat.Min(m.Val, l.Add(n.cap))
	rt.SetLogical(target, rat.FromInt(1))
}

// ---- RootSync ----

// RootSync is a hierarchical scheme: every node tracks the clock of a
// designated root. The root gossips its logical clock; every other node
// adopts the largest root-originated value it has heard (never below its own
// hardware clock, preserving validity) and forwards its clock each period.
// This approximates external-synchronization algorithms (Ostrovsky &
// Patt-Shamir's setting, discussed in §2): good global alignment to the
// source, but — like all max-style schemes — no gradient guarantee, since a
// stale branch jumps when fresher root values finally arrive.
func RootSync(period rat.Rat, root int) engine.Protocol {
	return rootSyncProto{period: period, root: root}
}

type rootSyncProto struct {
	period rat.Rat
	root   int
}

func (p rootSyncProto) Name() string { return "root-sync" }

func (p rootSyncProto) NewNode(id int) engine.Node {
	return &rootSyncNode{period: p.period, root: p.root, id: id}
}

// CloneState implements engine.Protocol. A rootSyncNode carries only immutable
// configuration, so forks share the automaton itself.
func (p rootSyncProto) CloneState(n engine.Node) engine.Node { return n }

type rootSyncNode struct {
	period rat.Rat
	root   int
	id     int
}

func (n *rootSyncNode) Init(rt *engine.Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *rootSyncNode) OnTimer(rt *engine.Runtime, _ int) {
	l := rt.Logical()
	for _, j := range rt.Neighbors() {
		rt.Send(j, ValueMsg{Val: l})
	}
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *rootSyncNode) OnMessage(rt *engine.Runtime, _ int, msg engine.Message) {
	m, ok := msg.(ValueMsg)
	if !ok {
		return
	}
	// The root ignores incoming values: it is the time source. Everyone
	// else adopts larger values, which ultimately originate at the root or
	// at a faster hardware clock along the way.
	if n.id == n.root {
		return
	}
	if m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, rat.FromInt(1))
	}
}
