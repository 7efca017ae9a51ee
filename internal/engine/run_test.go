package engine

import (
	"fmt"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ledgerRecord returns the ledger record of the message with the given key.
func ledgerRecord(exec *trace.Execution, key trace.MsgKey) (trace.MsgRecord, bool) {
	for _, rec := range exec.Ledger {
		if rec.Key == key {
			return rec, true
		}
	}
	return trace.MsgRecord{}, false
}

func twoNodeConfig(t *testing.T, sched0, sched1 *clock.Schedule, adv Adversary, dur rat.Rat) Config {
	t.Helper()
	net, err := network.TwoNode(ri(2))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Net:       net,
		Schedules: []*clock.Schedule{sched0, sched1},
		Adversary: adv,
		Protocol:  tickProtocol{period: ri(1)},
		Duration:  dur,
		Rho:       rf(1, 2),
	}
}

func TestRunBasics(t *testing.T) {
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), Midpoint(), ri(10))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 fires timers at HW 1..10 → 10 sends.
	var sends, recvs int
	for _, a := range exec.NodeActions(0) {
		if a.Kind == trace.KindSend {
			sends++
		}
	}
	for _, a := range exec.NodeActions(1) {
		if a.Kind == trace.KindRecv {
			recvs++
		}
	}
	if sends != 10 {
		t.Errorf("sends = %d, want 10", sends)
	}
	// Delay = bound/2 = 1, so the send at t=10 arrives at 11 > horizon.
	if recvs != 9 {
		t.Errorf("recvs = %d, want 9", recvs)
	}
	// Ledger: 10 messages, 9 delivered.
	if len(exec.Ledger) != 10 {
		t.Errorf("ledger size = %d, want 10", len(exec.Ledger))
	}
	delivered := 0
	for _, rec := range exec.Ledger {
		if exec.Delivered(&rec) {
			delivered++
			if !rec.Delay.Equal(ri(1)) {
				t.Errorf("delay = %s, want 1", rec.Delay)
			}
			if !rec.RecvReal.Equal(rec.SendReal.Add(rec.Delay)) {
				t.Error("recv != send + delay")
			}
		}
	}
	if delivered != 9 {
		t.Errorf("delivered = %d, want 9", delivered)
	}
}

func TestHardwareClockDrivesTimers(t *testing.T) {
	// Rate 2 is outside [1-ρ, 1+ρ] for ρ = 1/2, so Run must reject it.
	cfg := twoNodeConfig(t, clock.Constant(ri(2)), clock.Constant(ri(1)), Midpoint(), ri(5))
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected drift validation error for rate-2 clock")
	}
	// Use rate 3/2 instead (within ρ = 1/2): the HW-1 timer fires at real 2/3.
	cfg = twoNodeConfig(t, clock.Constant(rf(3, 2)), clock.Constant(ri(1)), Midpoint(), ri(6))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First timer at HW=1 → real time 2/3.
	for _, a := range exec.NodeActions(0) {
		if a.Kind == trace.KindTimer {
			if !a.Real.Equal(rf(2, 3)) {
				t.Errorf("first timer at real %s, want 2/3", a.Real)
			}
			if !a.HW.Equal(ri(1)) {
				t.Errorf("first timer at HW %s, want 1", a.HW)
			}
			break
		}
	}
}

func TestLogicalClockCompilation(t *testing.T) {
	// Node 1 jumps its logical clock to received values. With node 0 at rate
	// 3/2 and node 1 at rate 1, node 1's logical clock jumps above H_1.
	cfg := twoNodeConfig(t, clock.Constant(rf(3, 2)), clock.Constant(ri(1)), FractionAdversary{Frac: rat.Rat{}}, ri(12))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At real time 12, node 0's HW = 18; its last send ≤ 12 carried HW = 18
	// (timer 18 at real 12). Delay 0 → node 1 receives it at real 12 and
	// jumps to 18.
	l1 := exec.LogicalAt(1, ri(12))
	if !l1.Equal(ri(18)) {
		t.Errorf("L_1(12) = %s, want 18", l1)
	}
	// Between receipts the logical clock advances at hardware rate 1.
	mid := exec.LogicalAt(1, rf(21, 2)) // right after the t=10.5 jump? probe continuity
	if mid.Greater(ri(18)) {
		t.Errorf("L_1(10.5) = %s exceeds final value", mid)
	}
	// Logical clocks never decrease (upward jumps only in this protocol).
	if exec.Logical[1].MinJump(rat.Rat{}, ri(12)).Sign() < 0 {
		t.Error("logical clock of node 1 has a downward jump")
	}
	if exec.Logical[1].MinSlope(rat.Rat{}, ri(12)).Less(ri(1)) {
		t.Error("logical clock of node 1 has slope < 1")
	}
}

// badDelayAdversary returns delays exceeding the bound.
type badDelayAdversary struct{}

func (badDelayAdversary) Delay(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	return bound.Add(ri(1))
}

// pastTimerNode sets a timer in the past from its first timer callback.
type pastTimerNode struct{}

func (pastTimerNode) Init(rt *Runtime) { rt.SetTimerAtHW(rt.HW().Add(ri(1)), 1) }
func (pastTimerNode) OnTimer(rt *Runtime, id int) {
	rt.SetTimerAtHW(rt.HW().Sub(ri(1)), 2) // in the past: must fail the run
}
func (pastTimerNode) OnMessage(*Runtime, int, Message) {}

type pastTimerProtocol struct{}

func (pastTimerProtocol) Name() string           { return "past-timer" }
func (pastTimerProtocol) NewNode(int) Node       { return pastTimerNode{} }
func (pastTimerProtocol) CloneState(n Node) Node { return n }

// negMultNode declares an invalid negative multiplier.
type negMultNode struct{}

func (negMultNode) Init(rt *Runtime)                 { rt.SetLogical(ri(0), ri(-1)) }
func (negMultNode) OnTimer(*Runtime, int)            {}
func (negMultNode) OnMessage(*Runtime, int, Message) {}

type negMultProtocol struct{}

func (negMultProtocol) Name() string           { return "neg-mult" }
func (negMultProtocol) NewNode(int) Node       { return negMultNode{} }
func (negMultProtocol) CloneState(n Node) Node { return n }

// nilMsgNode sends a nil payload.
type nilMsgNode struct{}

func (nilMsgNode) Init(rt *Runtime)                 { rt.Send(1, nil) }
func (nilMsgNode) OnTimer(*Runtime, int)            {}
func (nilMsgNode) OnMessage(*Runtime, int, Message) {}

type nilMsgProtocol struct{}

func (nilMsgProtocol) Name() string           { return "nil-msg" }
func (nilMsgProtocol) NewNode(int) Node       { return nilMsgNode{} }
func (nilMsgProtocol) CloneState(n Node) Node { return n }

// TestRunErrors: Run rejects every invalid configuration before the first
// event, and fails the run on an adversary delay beyond the bound or an
// invalid node action (a timer in the past, a negative multiplier, a send
// to self, a nil payload).
func TestRunErrors(t *testing.T) {
	net, _ := network.TwoNode(ri(1))
	good := Config{
		Net:       net,
		Schedules: []*clock.Schedule{clock.Constant(ri(1)), clock.Constant(ri(1))},
		Adversary: Midpoint(),
		Protocol:  tickProtocol{period: ri(1)},
		Duration:  ri(2),
		Rho:       rf(1, 2),
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("unmutated config failed: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil net", func(c *Config) { c.Net = nil }},
		{"schedule count", func(c *Config) { c.Schedules = c.Schedules[:1] }},
		{"nil adversary", func(c *Config) { c.Adversary = nil }},
		{"nil protocol", func(c *Config) { c.Protocol = nil }},
		{"zero duration", func(c *Config) { c.Duration = rat.Rat{} }},
		{"rho too big", func(c *Config) { c.Rho = ri(1) }},
		{"drift violation", func(c *Config) {
			c.Schedules = []*clock.Schedule{clock.Constant(ri(3)), clock.Constant(ri(1))}
		}},
		{"delay beyond bound", func(c *Config) { c.Adversary = badDelayAdversary{} }},
		{"past timer", func(c *Config) { c.Protocol = pastTimerProtocol{} }},
		{"negative multiplier", func(c *Config) { c.Protocol = negMultProtocol{} }},
		{"self send", func(c *Config) { c.Protocol = selfSendProtocol{} }},
		{"nil message", func(c *Config) { c.Protocol = nilMsgProtocol{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			cfg.Schedules = append([]*clock.Schedule{}, good.Schedules...)
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestScriptedAdversary(t *testing.T) {
	script := map[trace.MsgKey]rat.Rat{
		{From: 0, To: 1, Seq: 0}: rf(3, 2),
	}
	adv := ScriptedAdversary{Delays: script, Fallback: Midpoint()}
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), adv, ri(5))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := ledgerRecord(exec, trace.MsgKey{From: 0, To: 1, Seq: 0})
	if !rec.Delay.Equal(rf(3, 2)) {
		t.Errorf("scripted delay = %s, want 3/2", rec.Delay)
	}
	rec, _ = ledgerRecord(exec, trace.MsgKey{From: 0, To: 1, Seq: 1})
	if !rec.Delay.Equal(ri(1)) {
		t.Errorf("fallback delay = %s, want 1", rec.Delay)
	}
}

func TestPerNodeActionOrder(t *testing.T) {
	cfg := twoNodeConfig(t, clock.Constant(ri(1)), clock.Constant(ri(1)), Midpoint(), ri(8))
	exec, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < exec.N(); i++ {
		actions := exec.NodeActions(i)
		if len(actions) == 0 || actions[0].Kind != trace.KindInit {
			t.Fatalf("node %d first action is not init", i)
		}
		for k := 1; k < len(actions); k++ {
			if actions[k].Real.Less(actions[k-1].Real) {
				t.Fatalf("node %d actions out of order", i)
			}
			if actions[k].HW.Less(actions[k-1].HW) {
				t.Fatalf("node %d hardware readings out of order", i)
			}
		}
	}
}

func ExampleRun() {
	net, _ := network.TwoNode(rat.FromInt(2))
	cfg := Config{
		Net:       net,
		Schedules: []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))},
		Adversary: Midpoint(),
		Protocol:  tickProtocol{period: rat.FromInt(1)},
		Duration:  rat.FromInt(4),
		Rho:       rat.MustFrac(1, 2),
	}
	exec, err := Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Node 0: init, 4 timers, 4 sends. Node 1: init, 3 receipts (the send
	// at t=4 lands at 5, past the horizon), 4 timers that send nothing.
	fmt.Println("actions:", len(exec.Actions))
	// Output: actions: 17
}

// introspectNode exercises the Runtime accessors from inside callbacks.
type introspectNode struct {
	t     *testing.T
	wantN int
}

func (n *introspectNode) Init(rt *Runtime) {
	if rt.ID() < 0 || rt.ID() >= n.wantN {
		n.t.Errorf("bad ID %d", rt.ID())
	}
	if rt.N() != n.wantN {
		n.t.Errorf("N = %d, want %d", rt.N(), n.wantN)
	}
	if !rt.Rho().Equal(rf(1, 2)) {
		n.t.Errorf("Rho = %s", rt.Rho())
	}
	for _, j := range rt.Neighbors() {
		if rt.Dist(j).Sign() <= 0 {
			n.t.Errorf("Dist(%d) = %s", j, rt.Dist(j))
		}
	}
	if !rt.LogicalMult().Equal(ri(1)) {
		n.t.Errorf("default mult = %s", rt.LogicalMult())
	}
	rt.SetLogical(rt.Logical(), rf(3, 2))
	if !rt.LogicalMult().Equal(rf(3, 2)) {
		n.t.Errorf("mult after SetLogical = %s", rt.LogicalMult())
	}
}
func (n *introspectNode) OnTimer(*Runtime, int)            {}
func (n *introspectNode) OnMessage(*Runtime, int, Message) {}

type introspectProtocol struct {
	t *testing.T
	n int
}

func (p introspectProtocol) Name() string        { return "introspect" }
func (p introspectProtocol) NewNode(id int) Node { return &introspectNode{t: p.t, wantN: p.n} }
func (p introspectProtocol) CloneState(n Node) Node {
	c := *n.(*introspectNode)
	return &c
}

func TestRuntimeAccessors(t *testing.T) {
	net, _ := network.Line(4)
	scheds := make([]*clock.Schedule, 4)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	if _, err := Run(Config{
		Net: net, Schedules: scheds, Adversary: Midpoint(),
		Protocol: introspectProtocol{t: t, n: 4}, Duration: ri(2), Rho: rf(1, 2),
	}); err != nil {
		t.Fatal(err)
	}
}

// farSenderNode sends directly to a distant (non-neighbor) node, which the
// model permits: distances bound delays for every pair.
type farSenderNode struct{ id int }

func (n farSenderNode) Init(rt *Runtime) {
	if n.id == 0 {
		rt.Send(rt.N()-1, echoMsg{Val: ri(42)})
	}
}
func (farSenderNode) OnTimer(*Runtime, int)            {}
func (farSenderNode) OnMessage(*Runtime, int, Message) {}

type farSenderProtocol struct{}

func (farSenderProtocol) Name() string           { return "far-sender" }
func (farSenderProtocol) NewNode(id int) Node    { return farSenderNode{id: id} }
func (farSenderProtocol) CloneState(n Node) Node { return n }

func TestLongDistanceSend(t *testing.T) {
	net, err := network.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, 5)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	exec, err := Run(Config{
		Net: net, Schedules: scheds, Adversary: Midpoint(),
		Protocol: farSenderProtocol{}, Duration: ri(5), Rho: rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := ledgerRecord(exec, trace.MsgKey{From: 0, To: 4, Seq: 0})
	if !ok {
		t.Fatal("long-distance message missing from ledger")
	}
	// Midpoint delay over distance 4 is 2.
	if !rec.Delay.Equal(ri(2)) {
		t.Errorf("delay = %s, want 2", rec.Delay)
	}
	if !exec.Delivered(&rec) {
		t.Error("message not delivered")
	}
}

func TestFuncAdversary(t *testing.T) {
	adv := FuncAdversary(func(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
		return bound
	})
	if got := adv.Delay(0, 1, 0, ri(0), ri(3)); !got.Equal(ri(3)) {
		t.Errorf("FuncAdversary delay = %s", got)
	}
}

func TestHashAdversaryDeterministicAndBounded(t *testing.T) {
	adv := HashAdversary{Seed: 99}
	bound := ri(4)
	seen := map[string]bool{}
	for seq := uint64(0); seq < 50; seq++ {
		d1 := adv.Delay(0, 1, seq, ri(0), bound)
		d2 := adv.Delay(0, 1, seq, ri(7), bound) // send time must not matter
		if !d1.Equal(d2) {
			t.Fatal("hash adversary depends on send time")
		}
		if d1.Sign() < 0 || d1.Greater(bound) {
			t.Fatalf("delay %s out of bounds", d1)
		}
		seen[d1.String()] = true
	}
	if len(seen) < 3 {
		t.Errorf("hash adversary produced only %d distinct delays in 50 draws", len(seen))
	}
}
