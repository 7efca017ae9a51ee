package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ShiftResult certifies the folklore Ω(d) bound (§5, claim 1) for one
// protocol and one distance: two indistinguishable executions whose skews
// between the two nodes differ by at least d/(8+4ρ) ≥ d/12, so in at least
// one of them the pair's skew is at least half that — no algorithm can keep
// two nodes at distance d closer than Ω(d) in every execution.
type ShiftResult struct {
	D          rat.Rat // the pair's distance
	Alpha      *trace.Execution
	Beta       *trace.Execution
	SkewAlpha  rat.Rat // L_0 − L_1 at the end of α
	SkewBeta   rat.Rat // L_0 − L_1 at the end of β
	Separation rat.Rat // SkewBeta − SkewAlpha ≥ GuaranteedGain
	// Implied is max(|SkewAlpha|, |SkewBeta|) ≥ Separation/2: a lower bound
	// on this algorithm's worst-case f(d).
	Implied rat.Rat
	// BetaCfg is the configuration that re-simulated β (γ speed-up schedules
	// plus the scripted delays); Seed exports it to the worst-case search.
	BetaCfg engine.Config
}

// Shift runs the two-node construction for the given protocol and distance
// d ≥ 1. It is Lemma 6.1 applied to the two-point line {0, d}: the base
// execution has rate-1 clocks and midpoint (d/2) delays; the transformed
// execution speeds node 0 by γ inside the window, remaining indistinguishable
// while node 0 gains d·(1/(8+4ρ)) of logical time on node 1.
func Shift(proto engine.Protocol, d rat.Rat, p Params) (*ShiftResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.Less(rat.FromInt(1)) {
		return nil, fmt.Errorf("lowerbound: shift distance %s < 1", d)
	}
	net, err := network.TwoNode(d)
	if err != nil {
		return nil, err
	}
	tau := p.Tau()
	cfg := engine.Config{
		Net:       net,
		Schedules: []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))},
		Adversary: engine.Midpoint(),
		Protocol:  proto,
		Duration:  tau.Mul(d),
		Rho:       p.Rho,
	}
	alpha, err := engine.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: shift α: %w", err)
	}
	res, err := AddSkew(AddSkewInput{
		Cfg:       cfg,
		Alpha:     alpha,
		Positions: []rat.Rat{{}, d},
		I:         0,
		J:         1,
		S:         rat.Rat{},
		Params:    p,
	})
	if err != nil {
		return nil, fmt.Errorf("lowerbound: shift: %w", err)
	}
	out := &ShiftResult{
		D:          d,
		Alpha:      alpha,
		Beta:       res.Beta,
		SkewAlpha:  res.SkewAlpha,
		SkewBeta:   res.SkewBeta,
		Separation: res.Gain,
		BetaCfg:    res.BetaCfg,
	}
	out.Implied = rat.Max(out.SkewAlpha.Abs(), out.SkewBeta.Abs())
	return out, nil
}
