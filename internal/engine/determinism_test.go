package engine

import (
	"testing"
	"testing/quick"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// chatterNode exercises timers, sends, logical declarations, and
// message-driven sends, parameterized to vary behavior across quick-check
// draws.
type chatterNode struct {
	id     int
	period rat.Rat
	mult   rat.Rat
	relay  bool
}

func (c *chatterNode) Init(rt *Runtime) {
	rt.SetTimerAtHW(rt.HW().Add(c.period), 1)
}

func (c *chatterNode) OnTimer(rt *Runtime, _ int) {
	for _, j := range rt.Neighbors() {
		rt.Send(j, echoMsg{Val: rt.Logical()})
	}
	rt.SetLogical(rt.Logical(), c.mult)
	rt.SetTimerAtHW(rt.HW().Add(c.period), 1)
}

func (c *chatterNode) OnMessage(rt *Runtime, from int, msg Message) {
	m, ok := msg.(echoMsg)
	if !ok {
		return
	}
	if m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, rat.FromInt(1))
		if c.relay {
			for _, j := range rt.Neighbors() {
				if j != from {
					rt.Send(j, echoMsg{Val: m.Val})
				}
			}
		}
	}
}

type chatterProtocol struct {
	period rat.Rat
	mult   rat.Rat
	relay  bool
}

func (p chatterProtocol) Name() string { return "chatter" }
func (p chatterProtocol) CloneState(n Node) Node {
	c := *n.(*chatterNode)
	return &c
}
func (p chatterProtocol) NewNode(id int) Node {
	return &chatterNode{id: id, period: p.period, mult: p.mult, relay: p.relay}
}

// TestQuickRunDeterministic re-runs random configurations and demands
// bit-identical traces: the foundation the construction verifiers stand on.
func TestQuickRunDeterministic(t *testing.T) {
	f := func(nRaw, seedRaw uint8, relay bool, rateBits [6]uint8) bool {
		n := int(nRaw%5) + 3
		net, err := network.Line(n)
		if err != nil {
			return false
		}
		scheds := make([]*clock.Schedule, n)
		for i := range scheds {
			// Rates in {1, 9/8, 5/4}.
			num := int64(rateBits[i%len(rateBits)]%3)*1 + 8
			scheds[i] = clock.Constant(rat.MustFrac(num, 8))
		}
		cfg := Config{
			Net:       net,
			Schedules: scheds,
			Adversary: HashAdversary{Seed: uint64(seedRaw), Denom: 8},
			Protocol:  chatterProtocol{period: rat.FromInt(1), mult: rat.FromInt(1), relay: relay},
			Duration:  rat.FromInt(12),
			Rho:       rat.MustFrac(1, 2),
		}
		a, err := Run(cfg)
		if err != nil {
			return false
		}
		b, err := Run(cfg)
		if err != nil {
			return false
		}
		if len(a.Actions) != len(b.Actions) {
			return false
		}
		for i := range a.Actions {
			if a.Actions[i] != b.Actions[i] {
				return false
			}
		}
		return trace.CheckIndistinguishable(a, b) == nil && trace.PrefixEqual(a, b, cfg.Duration) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickLedgerConsistent checks ledger invariants on random runs: every
// delivered message has recv = send + delay, delays within [0, d], and every
// recv action has a matching ledger entry.
func TestQuickLedgerConsistent(t *testing.T) {
	f := func(nRaw, seedRaw uint8) bool {
		n := int(nRaw%5) + 3
		net, err := network.Line(n)
		if err != nil {
			return false
		}
		scheds := make([]*clock.Schedule, n)
		for i := range scheds {
			scheds[i] = clock.Constant(rat.FromInt(1))
		}
		cfg := Config{
			Net:       net,
			Schedules: scheds,
			Adversary: HashAdversary{Seed: uint64(seedRaw), Denom: 4},
			Protocol:  chatterProtocol{period: rat.FromInt(1), mult: rat.FromInt(1)},
			Duration:  rat.FromInt(10),
			Rho:       rat.MustFrac(1, 2),
		}
		exec, err := Run(cfg)
		if err != nil {
			return false
		}
		for _, rec := range exec.Ledger {
			d := net.Dist(rec.Key.From, rec.Key.To)
			if rec.Delay.Sign() < 0 || rec.Delay.Greater(d) {
				return false
			}
			if rec.Delivered && !rec.RecvReal.Equal(rec.SendReal.Add(rec.Delay)) {
				return false
			}
		}
		recvs := 0
		for _, a := range exec.Actions {
			if a.Kind != trace.KindRecv {
				continue
			}
			recvs++
			rec, ok := ledgerRecord(exec, trace.MsgKey{From: a.Peer, To: a.Node, Seq: a.MsgSeq})
			if !ok || !rec.Delivered || !rec.RecvReal.Equal(a.Real) {
				return false
			}
		}
		delivered := 0
		for _, rec := range exec.Ledger {
			if rec.Delivered {
				delivered++
			}
		}
		return recvs == delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickHWMonotone checks that per-node hardware readings in the trace
// are nondecreasing and consistent with the schedule.
func TestQuickHWMonotone(t *testing.T) {
	f := func(seedRaw uint8) bool {
		n := 4
		net, err := network.Line(n)
		if err != nil {
			return false
		}
		scheds := make([]*clock.Schedule, n)
		for i := range scheds {
			scheds[i] = clock.Constant(rat.MustFrac(int64(seedRaw%3)+8, 8))
		}
		cfg := Config{
			Net:       net,
			Schedules: scheds,
			Adversary: Midpoint(),
			Protocol:  chatterProtocol{period: rat.FromInt(1), mult: rat.FromInt(1), relay: true},
			Duration:  rat.FromInt(8),
			Rho:       rat.MustFrac(1, 2),
		}
		exec, err := Run(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var prev rat.Rat
			for _, a := range exec.NodeActions(i) {
				if a.HW.Less(prev) {
					return false
				}
				if !exec.HWAt(i, a.Real).Equal(a.HW) {
					return false
				}
				prev = a.HW
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
