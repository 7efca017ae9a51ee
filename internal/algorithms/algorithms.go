// Package algorithms implements clock synchronization algorithms (CSAs) as
// engine.Protocol automata.
//
// The portfolio mirrors the paper's discussion:
//
//   - Null: L = H, no communication. The do-nothing baseline; accumulates
//     skew at the drift rate and has no global skew bound.
//   - MaxGossip: the simplified Srikanth–Toueg algorithm that §2 of the
//     paper uses to show the gradient property fails: "nodes periodically
//     broadcast their clock values, and any node receiving a value sets its
//     clock value to be the larger of its own clock value and the received
//     value." Global skew is O(D), but a single receipt can yank a node D
//     ahead of a distance-1 neighbor.
//   - MaxFlood: MaxGossip plus immediate forwarding when a receipt increases
//     the clock; tightens global skew, makes the §2 violation sharper.
//   - Gradient: a rate-based catch-up algorithm of the kind the paper
//     conjectures achieves f(d) = O(d + log D): instead of jumping, a node
//     that sees a neighbor ahead by more than a threshold raises its logical
//     rate multiplier; increase per unit time is bounded by a constant, in
//     the spirit of the Bounded Increase lemma.
//   - RBS: a reference-broadcast scheme after Elson et al.: a beacon node
//     broadcasts pulses; receivers align their logical clocks to the pulse
//     frame. Intended for Star topologies where the beacon-to-leaf delay
//     spread is the distance.
//
// All message payloads implement engine.Message with canonical value-determined
// strings, which the indistinguishability checker compares.
package algorithms

import (
	"strconv"

	"gcs/internal/engine"
	"gcs/internal/rat"
)

// ValueMsg carries a logical clock value.
type ValueMsg struct {
	Val rat.Rat
}

// MsgString implements engine.Message. It is called for every message the
// simulator observes, so the common small-rational case is rendered into a
// stack buffer and converted with a single allocation.
func (m ValueMsg) MsgString() string {
	n, nok := m.Val.Num()
	d, dok := m.Val.Den()
	if !nok || !dok {
		return "v:" + m.Val.String()
	}
	var buf [44]byte // len("v:" + "-9223372036854775808/9223372036854775807")
	out := append(buf[:0], 'v', ':')
	out = strconv.AppendInt(out, n, 10)
	if d != 1 {
		out = append(out, '/')
		out = strconv.AppendInt(out, d, 10)
	}
	return string(out)
}

// PulseMsg is an RBS beacon pulse.
type PulseMsg struct {
	Index int64
}

// MsgString implements engine.Message.
func (m PulseMsg) MsgString() string { return "pulse:" + strconv.FormatInt(m.Index, 10) }

const tickTimer = 1

// ---- Null ----

type nullProto struct{}

// Null returns the no-communication baseline protocol with L = H.
func Null() engine.Protocol { return nullProto{} }

func (nullProto) Name() string            { return "null" }
func (nullProto) NewNode(int) engine.Node { return nullNode{} }

// CloneState implements engine.Protocol; nullNode is stateless.
func (nullProto) CloneState(n engine.Node) engine.Node { return n }

type nullNode struct{}

func (nullNode) Init(*engine.Runtime)                           {}
func (nullNode) OnTimer(*engine.Runtime, int)                   {}
func (nullNode) OnMessage(*engine.Runtime, int, engine.Message) {}

// ---- MaxGossip ----

type maxProto struct {
	period rat.Rat
	flood  bool
}

// MaxGossip returns the simplified Srikanth–Toueg protocol: every period (in
// hardware time) broadcast the logical clock to gossip neighbors; on receipt
// of a larger value, jump to it.
func MaxGossip(period rat.Rat) engine.Protocol { return maxProto{period: period} }

// MaxFlood is MaxGossip plus immediate re-broadcast whenever a receipt
// increases the clock, propagating the maximum at network speed.
func MaxFlood(period rat.Rat) engine.Protocol { return maxProto{period: period, flood: true} }

func (p maxProto) Name() string {
	if p.flood {
		return "max-flood"
	}
	return "max-gossip"
}

func (p maxProto) NewNode(int) engine.Node { return &maxNode{period: p.period, flood: p.flood} }

// CloneState implements engine.Protocol. A maxNode carries only immutable
// configuration (its mutable state — the logical clock — lives in the
// Runtime), so forks share the automaton itself.
func (p maxProto) CloneState(n engine.Node) engine.Node { return n }

// maxNode holds configuration only; its callbacks never write a field.
// CloneState shares it across forks on that basis.
type maxNode struct {
	period rat.Rat
	flood  bool
}

func (n *maxNode) Init(rt *engine.Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *maxNode) OnTimer(rt *engine.Runtime, _ int) {
	n.broadcast(rt)
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *maxNode) broadcast(rt *engine.Runtime) {
	// Box the payload once: the same immutable value goes to every neighbor.
	msg := engine.Message(ValueMsg{Val: rt.Logical()})
	for _, j := range rt.Neighbors() {
		rt.Send(j, msg)
	}
}

func (n *maxNode) OnMessage(rt *engine.Runtime, _ int, msg engine.Message) {
	m, ok := msg.(ValueMsg)
	if !ok {
		return
	}
	if m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, rat.FromInt(1))
		if n.flood {
			n.broadcast(rt)
		}
	}
}

// ---- Gradient ----

// GradientParams configures the rate-based gradient protocol.
type GradientParams struct {
	// Period between neighbor exchanges, in hardware time.
	Period rat.Rat
	// Threshold above which a node enters fast mode: if the best neighbor
	// estimate exceeds the local logical clock by more than Threshold, the
	// node raises its multiplier.
	Threshold rat.Rat
	// FastMult is the catch-up multiplier (> 1). Increase per real second is
	// at most FastMult·(1+ρ), a constant — the structural property the
	// Bounded Increase lemma says any good gradient algorithm must have.
	FastMult rat.Rat
}

// DefaultGradientParams returns the parameters used by the benchmarks:
// period 1, threshold 1, fast multiplier 4. The fast multiplier must exceed
// (1+ρ)/(1−ρ) or a slow-hardware node in fast mode still cannot catch a
// fast-hardware node; with the repository default ρ = 1/2 that ratio is 3,
// so 4 leaves headroom. (Real deployments have ρ ≈ 10⁻⁴; the simulations use
// a huge drift to make effects visible in short runs.)
func DefaultGradientParams() GradientParams {
	return GradientParams{
		Period:    rat.FromInt(1),
		Threshold: rat.FromInt(1),
		FastMult:  rat.FromInt(4),
	}
}

type gradientProto struct {
	params GradientParams
}

// Gradient returns the rate-based gradient protocol.
func Gradient(params GradientParams) engine.Protocol { return gradientProto{params: params} }

func (p gradientProto) Name() string { return "gradient" }

func (p gradientProto) NewNode(int) engine.Node {
	return &gradientNode{params: p.params}
}

// CloneState implements engine.Protocol: the neighbor-estimate table is the
// node's mutable state; it is shared copy-on-write (see estSet.clone), so
// cloning is a single struct copy regardless of degree.
func (p gradientProto) CloneState(n engine.Node) engine.Node {
	g := n.(*gradientNode)
	return &gradientNode{params: g.params, est: g.est.clone(), fast: g.fast}
}

// CloneStates implements engine.BulkCloneProtocol: all clones come out of one
// slab, so a whole-network fork costs two allocations however wide the net.
func (p gradientProto) CloneStates(nodes []engine.Node) []engine.Node {
	slab := make([]gradientNode, len(nodes))
	out := make([]engine.Node, len(nodes))
	for i, n := range nodes {
		g := n.(*gradientNode)
		slab[i] = gradientNode{params: g.params, est: g.est.clone(), fast: g.fast}
		out[i] = &slab[i]
	}
	return out
}

type gradientNode struct {
	params GradientParams
	est    estSet
	fast   bool
}

func (n *gradientNode) Init(rt *engine.Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(n.params.Period), tickTimer)
}

func (n *gradientNode) OnTimer(rt *engine.Runtime, _ int) {
	msg := engine.Message(ValueMsg{Val: rt.Logical()})
	for _, j := range rt.Neighbors() {
		rt.Send(j, msg)
	}
	n.adjust(rt)
	rt.SetTimerAtHW(rt.HW().Add(n.params.Period), tickTimer)
}

func (n *gradientNode) OnMessage(rt *engine.Runtime, from int, msg engine.Message) {
	m, ok := msg.(ValueMsg)
	if !ok {
		return
	}
	n.est.init(rt)
	n.est.store(from, nbrEst{val: m.Val, atHW: rt.HW(), set: true})
	n.adjust(rt)
}

// adjust recomputes the rate mode from the freshest neighbor estimates.
// Slots follow the runtime's neighbor order, so the sweep sees estimates in
// the same order the map version's per-neighbor lookups did.
func (n *gradientNode) adjust(rt *engine.Runtime) {
	l := rt.Logical()
	hw := rt.HW()
	var maxAhead rat.Rat
	for i := range n.est.slots {
		e := &n.est.slots[i]
		if !e.set {
			continue
		}
		if ahead := e.value(hw).Sub(l); ahead.Greater(maxAhead) {
			maxAhead = ahead
		}
	}
	wantFast := maxAhead.Greater(n.params.Threshold)
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

// ---- RBS ----

type rbsProto struct {
	period rat.Rat
	beacon int
}

// RBS returns a reference-broadcast protocol: the beacon node broadcasts
// pulse k at hardware time k·period to its gossip neighbors; every receiver
// aligns its logical clock to the pulse frame (pulse k ↦ logical time
// k·period), jumping only forward so validity is preserved.
func RBS(period rat.Rat, beacon int) engine.Protocol { return rbsProto{period: period, beacon: beacon} }

func (p rbsProto) Name() string { return "rbs" }

func (p rbsProto) NewNode(id int) engine.Node {
	return &rbsNode{period: p.period, beacon: p.beacon, id: id}
}

// CloneState implements engine.Protocol.
func (p rbsProto) CloneState(n engine.Node) engine.Node {
	c := *n.(*rbsNode)
	return &c
}

type rbsNode struct {
	period rat.Rat
	beacon int
	id     int
	pulse  int64
}

func (n *rbsNode) Init(rt *engine.Runtime) {
	if n.id == n.beacon {
		rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
	}
}

func (n *rbsNode) OnTimer(rt *engine.Runtime, _ int) {
	if n.id != n.beacon {
		return
	}
	n.pulse++
	for _, j := range rt.Neighbors() {
		rt.Send(j, PulseMsg{Index: n.pulse})
	}
	rt.SetTimerAtHW(rt.HW().Add(n.period), tickTimer)
}

func (n *rbsNode) OnMessage(rt *engine.Runtime, _ int, msg engine.Message) {
	m, ok := msg.(PulseMsg)
	if !ok {
		return
	}
	target := rat.FromInt(m.Index).Mul(n.period)
	if target.Greater(rt.Logical()) {
		rt.SetLogical(target, rat.FromInt(1))
	}
}

// All returns the benchmark portfolio with default parameters: Null,
// MaxGossip, MaxFlood, BoundedMax (jump cap 1), Gradient, LLW (blocking
// gradient), and RootSync (root 0), each exchanging every 1 hardware time
// unit. (RBS is excluded: it needs a designated beacon topology.)
func All() []engine.Protocol {
	one := rat.FromInt(1)
	return []engine.Protocol{
		Null(),
		MaxGossip(one),
		MaxFlood(one),
		BoundedMax(one, one),
		Gradient(DefaultGradientParams()),
		LLW(DefaultLLWParams()),
		RootSync(one, 0),
	}
}
