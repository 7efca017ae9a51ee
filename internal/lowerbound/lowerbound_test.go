package lowerbound

import (
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// lineAlpha builds a clean rate-1, midpoint-delay execution on a line, the
// standing precondition environment for the lemmas.
func lineAlpha(t *testing.T, proto engine.Protocol, n int, dur rat.Rat, p Params) (engine.Config, *trace.Execution) {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(ri(1))
	}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  proto,
		Duration:  dur,
		Rho:       p.Rho,
	}
	exec, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, exec
}

func TestAddSkewOnLine(t *testing.T) {
	p := DefaultParams()
	for _, proto := range algorithms.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			n := 9
			span := int64(n - 1)
			dur := p.Tau().Mul(ri(span))
			cfg, alpha := lineAlpha(t, proto, n, dur, p)
			positions := make([]rat.Rat, n)
			for k := range positions {
				positions[k] = ri(int64(k))
			}
			res, err := AddSkew(AddSkewInput{
				Cfg: cfg, Alpha: alpha, Positions: positions,
				I: 0, J: n - 1, S: rat.Rat{}, Params: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Gain.Less(res.GuaranteedGain) {
				t.Errorf("gain %s < guaranteed %s", res.Gain, res.GuaranteedGain)
			}
			// Gain fraction is 1/10 at ρ=1/2, span 8 → guaranteed 4/5.
			if !res.GuaranteedGain.Equal(rf(4, 5)) {
				t.Errorf("guaranteed gain = %s, want 4/5", res.GuaranteedGain)
			}
			// Interior nodes' speed-up times are strictly between S and T'.
			for k := 1; k < n-1; k++ {
				if !res.Tk[k].Greater(res.Tk[0]) || !res.Tk[k].Less(res.Tk[n-1]) {
					t.Errorf("Tk[%d]=%s not interior", k, res.Tk[k])
				}
				// Figure 1: node k runs at γ for τ/γ longer than node k+1.
				gap := res.Tk[k+1].Sub(res.Tk[k])
				if !gap.Equal(p.Tau().Div(p.Gamma())) {
					t.Errorf("Tk gap at %d = %s, want τ/γ = %s", k, gap, p.Tau().Div(p.Gamma()))
				}
			}
		})
	}
}

func TestAddSkewInteriorPair(t *testing.T) {
	// Apply the lemma to an interior pair (2, 6) of a 9-node line.
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 9
	span := int64(4)
	// S > 0: run longer than the window.
	warmup := ri(6)
	dur := warmup.Add(p.Tau().Mul(ri(span)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 2, J: 6, S: warmup, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes left of I (0,1,2) all share Tk = S; right of J share Tk = T'.
	for k := 0; k <= 2; k++ {
		if !res.Tk[k].Equal(warmup) {
			t.Errorf("Tk[%d] = %s, want S = %s", k, res.Tk[k], warmup)
		}
	}
	for k := 6; k < n; k++ {
		if !res.Tk[k].Equal(res.TPrime) {
			t.Errorf("Tk[%d] = %s, want T' = %s", k, res.Tk[k], res.TPrime)
		}
	}
	if res.Gain.Less(res.GuaranteedGain) {
		t.Errorf("gain %s < guaranteed %s", res.Gain, res.GuaranteedGain)
	}
}

func TestAddSkewPreconditionViolations(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.Null()
	n := 3
	positions := []rat.Rat{ri(0), ri(1), ri(2)}

	// Wrong adversary (delays not d/2) must be rejected.
	net, _ := network.Line(n)
	scheds := []*clock.Schedule{clock.Constant(ri(1)), clock.Constant(ri(1)), clock.Constant(ri(1))}
	cfg := engine.Config{
		Net: net, Schedules: scheds,
		Adversary: engine.FractionAdversary{Frac: rf(1, 4)},
		Protocol:  algorithms.MaxGossip(ri(1)), Duration: p.Tau().Mul(ri(2)), Rho: p.Rho,
	}
	alpha, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddSkew(AddSkewInput{Cfg: cfg, Alpha: alpha, Positions: positions, I: 0, J: 2, S: rat.Rat{}, Params: p}); err == nil {
		t.Error("quarter-delay α should fail the delay precondition")
	}

	// Wrong rates (not 1 in the window) must be rejected.
	cfg2 := cfg
	cfg2.Adversary = engine.Midpoint()
	cfg2.Schedules = []*clock.Schedule{clock.Constant(rf(9, 8)), clock.Constant(ri(1)), clock.Constant(ri(1))}
	alpha2, err := engine.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddSkew(AddSkewInput{Cfg: cfg2, Alpha: alpha2, Positions: positions, I: 0, J: 2, S: rat.Rat{}, Params: p}); err == nil {
		t.Error("fast-clock α should fail the rate precondition")
	}

	// Mismatched duration.
	cfg3 := cfg
	cfg3.Adversary = engine.Midpoint()
	alpha3, err := engine.Run(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddSkew(AddSkewInput{Cfg: cfg3, Alpha: alpha3, Positions: positions, I: 0, J: 2, S: ri(1), Params: p}); err == nil {
		t.Error("S inconsistent with duration should be rejected")
	}
	_ = proto
}

func TestBoundedIncreaseGradientVsMax(t *testing.T) {
	p := DefaultParams()
	n := 7
	dur := ri(20)
	protos := []engine.Protocol{
		algorithms.MaxGossip(ri(1)),
		algorithms.Gradient(algorithms.DefaultGradientParams()),
	}
	results := map[string]*BoundedIncreaseResult{}
	for _, proto := range protos {
		cfg, alpha := lineAlpha(t, proto, n, dur, p)
		res, err := BoundedIncrease(BoundedIncreaseInput{Cfg: cfg, Alpha: alpha, I: 3, Params: p})
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		results[proto.Name()] = res
		// Basic sanity: increase is at least the validity rate (clock must
		// advance at >= 1/2 per unit).
		if res.MaxIncrease.Less(rf(1, 2)) {
			t.Errorf("%s: max increase %s < 1/2", proto.Name(), res.MaxIncrease)
		}
	}
	// The gradient algorithm's structural increase cap is FastMult·(1+ρ/2)
	// on rate-1 windows here; verify it is respected.
	grad := results["gradient"]
	capVal := algorithms.DefaultGradientParams().FastMult.Mul(rf(5, 4))
	if grad.MaxIncrease.Greater(capVal) {
		t.Errorf("gradient increase %s exceeds structural cap %s", grad.MaxIncrease, capVal)
	}
}

func TestBoundedIncreasePreconditions(t *testing.T) {
	p := DefaultParams()
	// Too short a run.
	cfg, alpha := lineAlpha(t, algorithms.Null(), 3, ri(2), p)
	if _, err := BoundedIncrease(BoundedIncreaseInput{Cfg: cfg, Alpha: alpha, I: 1, Params: p}); err == nil {
		t.Error("duration 2 < τ + 1/2 should be rejected at ρ=1/2? τ=2, τ+1/2=5/2 > 2")
	}
	// Rates outside [1, 1+ρ/2].
	net, _ := network.Line(3)
	scheds := []*clock.Schedule{clock.Constant(rf(3, 4)), clock.Constant(ri(1)), clock.Constant(ri(1))}
	cfg2 := engine.Config{Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
		Protocol: algorithms.Null(), Duration: ri(10), Rho: p.Rho}
	alpha2, err := engine.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BoundedIncrease(BoundedIncreaseInput{Cfg: cfg2, Alpha: alpha2, I: 1, Params: p}); err == nil {
		t.Error("rate 3/4 < 1 should be rejected")
	}
}

func TestMainTheoremSmall(t *testing.T) {
	p := DefaultParams()
	res, err := MainTheorem(MainTheoremInput{
		Protocol: algorithms.MaxGossip(ri(1)),
		Params:   p,
		Branch:   3,
		Rounds:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 10 {
		t.Fatalf("D = %d, want 10", res.D)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Rounds))
	}
	// Round 0 works on the full span; round 1 on a third of it.
	if res.Rounds[0].NK != 9 || res.Rounds[1].NK != 3 {
		t.Errorf("round spans = %d, %d; want 9, 3", res.Rounds[0].NK, res.Rounds[1].NK)
	}
	// Every round's Add Skew gain meets the lemma bound n_k/10.
	for _, r := range res.Rounds {
		want := rf(r.NK, 10)
		if r.AddSkewGain.Less(want) {
			t.Errorf("round %d gain %s < %s", r.K, r.AddSkewGain, want)
		}
	}
	// The construction ends with a positive adjacent skew.
	if res.AdjacentSkew.Sign() <= 0 {
		t.Errorf("final adjacent skew %s not positive", res.AdjacentSkew)
	}
	// Rendering works.
	out := RenderRounds(res)
	if !strings.Contains(out, "final adjacent pair") {
		t.Errorf("render missing summary: %s", out)
	}
}

func TestMainTheoremGradientAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := DefaultParams()
	res, err := MainTheorem(MainTheoremInput{
		Protocol: algorithms.Gradient(algorithms.DefaultGradientParams()),
		Params:   p,
		Branch:   4,
		Rounds:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdjacentSkew.Sign() <= 0 {
		t.Errorf("adjacent skew %s not positive", res.AdjacentSkew)
	}
}

func TestMainTheoremInputValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := MainTheorem(MainTheoremInput{Protocol: algorithms.Null(), Params: p, Branch: 1, Rounds: 1}); err == nil {
		t.Error("branch 1 should be rejected")
	}
	if _, err := MainTheorem(MainTheoremInput{Protocol: algorithms.Null(), Params: p, Branch: 2, Rounds: 0}); err == nil {
		t.Error("rounds 0 should be rejected")
	}
	if _, err := MainTheorem(MainTheoremInput{Protocol: algorithms.Null(), Params: p, Branch: 2, Rounds: 40}); err == nil {
		t.Error("absurd size should be rejected")
	}
}

func TestCounterexampleMaxGossip(t *testing.T) {
	p := DefaultParams()
	dc := ri(16)
	res, err := Counterexample(CounterexampleInput{
		Protocol: algorithms.MaxGossip(ri(1)),
		Dc:       dc,
		SwitchAt: ri(40),
		Duration: ri(48),
		Params:   p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the switch, y jumps ~drift·Dc ahead of z at distance 1. Demand
	// at least Dc/8 — an order-of-Dc violation (f(1) cannot be O(1)).
	if res.PeakYZ.Val.Less(dc.Div(ri(8))) {
		t.Errorf("peak y−z skew %s too small (want ≥ %s)", res.PeakYZ.Val, dc.Div(ri(8)))
	}
	// Before the switch the pair was comparatively close.
	if !res.PreSwitchYZ.Val.Less(res.PeakYZ.Val) {
		t.Errorf("pre-switch skew %s not below peak %s", res.PreSwitchYZ.Val, res.PeakYZ.Val)
	}
}

func TestCounterexampleGradientResists(t *testing.T) {
	p := DefaultParams()
	dc := ri(16)
	maxRes, err := Counterexample(CounterexampleInput{
		Protocol: algorithms.MaxGossip(ri(1)),
		Dc:       dc, SwitchAt: ri(40), Duration: ri(48), Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	gradRes, err := Counterexample(CounterexampleInput{
		Protocol: algorithms.Gradient(algorithms.DefaultGradientParams()),
		Dc:       dc, SwitchAt: ri(40), Duration: ri(48), Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rate-based algorithm cannot jump: its post-switch local skew grows
	// at a bounded rate and stays well under the max algorithm's spike.
	if !gradRes.PeakYZ.Val.Less(maxRes.PeakYZ.Val) {
		t.Errorf("gradient peak %s not below max-gossip peak %s",
			gradRes.PeakYZ.Val, maxRes.PeakYZ.Val)
	}
}

func TestCounterexampleValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := Counterexample(CounterexampleInput{
		Protocol: algorithms.Null(), Dc: rf(1, 2), SwitchAt: ri(1), Duration: ri(2), Params: p,
	}); err == nil {
		t.Error("Dc < 1 should be rejected")
	}
	if _, err := Counterexample(CounterexampleInput{
		Protocol: algorithms.Null(), Dc: ri(2), SwitchAt: ri(5), Duration: ri(3), Params: p,
	}); err == nil {
		t.Error("Duration < SwitchAt should be rejected")
	}
}

func TestRenderFigure1(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 5
	dur := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{Cfg: cfg, Alpha: alpha, Positions: positions, I: 0, J: n - 1, S: rat.Rat{}, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure1(res, rat.Rat{}, 40)
	if !strings.Contains(out, "█") || !strings.Contains(out, "Tk=") {
		t.Errorf("figure rendering unexpected:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines < n+2 {
		t.Errorf("figure has %d lines, want >= %d", lines, n+2)
	}
}
