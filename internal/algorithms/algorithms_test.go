package algorithms

import (
	"strings"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

// lineRun runs a protocol on a line of n nodes with the given per-node rates.
func lineRun(t *testing.T, proto engine.Protocol, n int, rates []rat.Rat, adv engine.Adversary, dur rat.Rat) *trace.Execution {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		r := ri(1)
		if rates != nil {
			r = rates[i]
		}
		scheds[i] = clock.Constant(r)
	}
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: adv,
		Protocol:  proto,
		Duration:  dur,
		Rho:       rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestNullAccumulatesDrift(t *testing.T) {
	// Rates 3/2 and 1: with L = H the skew after time T is T/2.
	rates := []rat.Rat{rf(3, 2), ri(1)}
	e := lineRun(t, Null(), 2, rates, engine.Midpoint(), ri(20))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	if got := e.FinalSkew(0, 1); !got.Equal(ri(10)) {
		t.Errorf("final skew = %s, want 10", got)
	}
	// No messages at all.
	if len(e.Ledger) != 0 {
		t.Errorf("null protocol sent %d messages", len(e.Ledger))
	}
}

func TestMaxGossipConverges(t *testing.T) {
	// Node 0 fast, others at rate 1. Max algorithm keeps global skew bounded
	// by roughly drift·period + diameter-delay, far below the Null drift.
	n := 5
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1)}
	e := lineRun(t, MaxGossip(ri(1)), n, rates, engine.Midpoint(), ri(40))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	g := core.GlobalSkew(e)
	// Null would reach 20; max gossip must stay well below.
	if g.Skew.GreaterEq(ri(10)) {
		t.Errorf("global skew %s too large for max-gossip", g.Skew)
	}
	// Logical clocks are monotone (only upward jumps).
	for i := 0; i < n; i++ {
		if e.Logical[i].MinJump(rat.Rat{}, e.Duration).Sign() < 0 {
			t.Errorf("node %d jumped down", i)
		}
	}
}

func TestMaxFloodTighterThanGossip(t *testing.T) {
	n := 6
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1), ri(1)}
	gossip := lineRun(t, MaxGossip(ri(1)), n, rates, engine.Midpoint(), ri(30))
	flood := lineRun(t, MaxFlood(ri(1)), n, rates, engine.Midpoint(), ri(30))
	gs := core.GlobalSkew(gossip).Skew
	fs := core.GlobalSkew(flood).Skew
	if fs.Greater(gs) {
		t.Errorf("flood skew %s > gossip skew %s", fs, gs)
	}
	// Flooding must produce at least as many messages.
	if len(flood.Ledger) < len(gossip.Ledger) {
		t.Errorf("flood sent %d msgs < gossip %d", len(flood.Ledger), len(gossip.Ledger))
	}
}

func TestGradientValidityAndBoundedIncrease(t *testing.T) {
	n := 6
	rates := []rat.Rat{rf(3, 2), ri(1), ri(1), ri(1), ri(1), rf(1, 2)}
	params := DefaultGradientParams()
	e := lineRun(t, Gradient(params), n, rates, engine.Midpoint(), ri(40))
	if err := core.CheckValidity(e); err != nil {
		t.Fatal(err)
	}
	// Structural bounded increase: max increase per unit real time is at
	// most FastMult·(1+ρ) = 3/2 · 3/2 = 9/4.
	bound := params.FastMult.Mul(rf(3, 2))
	for i := 0; i < n; i++ {
		inc := core.MaxIncreasePerUnit(e, i, rat.Rat{}, e.Duration)
		if inc.Val.Greater(bound) {
			t.Errorf("node %d increase %s exceeds structural bound %s", i, inc.Val, bound)
		}
	}
	// And it still tracks the fast node: global skew far below Null's 20.
	g := core.GlobalSkew(e)
	if g.Skew.GreaterEq(ri(15)) {
		t.Errorf("gradient global skew %s too large", g.Skew)
	}
}

func TestGradientKeepsLocalSkewSmall(t *testing.T) {
	// All rate 1 except a fast end node; adversarial half-delay messages.
	n := 8
	rates := make([]rat.Rat, n)
	for i := range rates {
		rates[i] = ri(1)
	}
	rates[0] = rf(5, 4)
	e := lineRun(t, Gradient(DefaultGradientParams()), n, rates, engine.Midpoint(), ri(60))
	local := core.LocalSkew(e)
	global := core.GlobalSkew(e)
	if local.Skew.Greater(global.Skew) {
		t.Errorf("local skew %s exceeds global %s", local.Skew, global.Skew)
	}
	// The gradient property in action: local skew should be a small constant
	// here (threshold + catch-up lag), well under the diameter-scale bound.
	if local.Skew.Greater(ri(6)) {
		t.Errorf("local skew %s unexpectedly large", local.Skew)
	}
}

func TestRBSOnStar(t *testing.T) {
	n := 5
	net, err := network.Star(n, ri(1))
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	scheds[2] = clock.Constant(rf(9, 8))
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.HashAdversary{Seed: 5, Denom: 8},
		Protocol:  RBS(ri(2), 0),
		Duration:  ri(30),
		Rho:       rf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckValidity(exec); err != nil {
		t.Fatal(err)
	}
	// Leaves track the pulse frame: pairwise leaf skew stays bounded by
	// pulse period + delay spread, not by drift × duration.
	worst := core.GlobalSkew(exec)
	if worst.Skew.Greater(ri(6)) {
		t.Errorf("RBS worst skew %s too large", worst.Skew)
	}
	// Only the beacon sends pulses.
	for _, rec := range exec.Ledger {
		if rec.Key.From != 0 {
			t.Errorf("non-beacon node %d sent a message", rec.Key.From)
		}
	}
}

func TestAllPortfolio(t *testing.T) {
	ps := All()
	if len(ps) != 7 {
		t.Fatalf("All() returned %d protocols", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
		if p.NewNode(0) == nil {
			t.Errorf("%s returns nil node", p.Name())
		}
	}
	for _, want := range []string{"null", "max-gossip", "max-flood", "bounded-max", "gradient", "llw", "root-sync"} {
		if !names[want] {
			t.Errorf("missing protocol %s", want)
		}
	}
}

// TestByName: every listed name builds a protocol reporting that name, the
// names are distinct and cover All() plus rbs, and an unknown name's error
// lists every valid one.
func TestByName(t *testing.T) {
	names := Names()
	want := []string{"null", "max-gossip", "max-flood", "bounded-max", "gradient", "llw", "root-sync", "rbs"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q) built %q", name, p.Name())
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown protocol built")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestMsgStrings(t *testing.T) {
	if got := (ValueMsg{Val: rf(7, 2)}).MsgString(); got != "v:7/2" {
		t.Errorf("ValueMsg string = %q", got)
	}
	if got := (PulseMsg{Index: 3}).MsgString(); got != "pulse:3" {
		t.Errorf("PulseMsg string = %q", got)
	}
}
