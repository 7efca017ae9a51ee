package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// CounterexampleInput configures the §2 scenario showing that max-based
// algorithms violate the gradient property.
//
// Three nodes x, y, z in a line: d(x,y) = Dc, d(y,z) = 1, d(x,z) = Dc + 1.
// Node x's hardware clock runs at 1+ρ/2 while y's and z's run at 1. Messages
// from x travel at full delay (Dc to y, Dc+1 to z) until SwitchAt, when the
// x→y delay drops to (near) zero: y learns how far ahead x really is and
// jumps, while z is still one second behind the news — so for about a
// second, y is ≈ drift·Dc ahead of z although d(y,z) = 1.
type CounterexampleInput struct {
	Protocol engine.Protocol
	// Dc is the x−y distance (the paper's "D").
	Dc rat.Rat
	// SwitchAt is the real time at which the x→y delay collapses.
	SwitchAt rat.Rat
	// Duration of the run (> SwitchAt + a few units).
	Duration rat.Rat
	Params   Params
}

// CounterexampleResult certifies the gradient violation.
type CounterexampleResult struct {
	Exec *trace.Execution
	// PeakYZ is the largest L_y − L_z observed after the switch, with the
	// time it occurred. The gradient property would require it ≤ f(1); here
	// it scales with Dc.
	PeakYZ piecewise.Extremum
	// PreSwitchYZ is the largest |L_y − L_z| before the switch (small).
	PreSwitchYZ piecewise.Extremum
	// Ratio = PeakYZ / Dc (reported as float for readability).
	Ratio float64
}

// Counterexample runs the §2 construction against the given protocol
// (intended: MaxGossip / MaxFlood; running it against Gradient shows the
// violation disappearing).
func Counterexample(in CounterexampleInput) (*CounterexampleResult, error) {
	p := in.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	one := rat.FromInt(1)
	if in.Dc.Less(one) {
		return nil, fmt.Errorf("lowerbound: Dc = %s < 1", in.Dc)
	}
	if !in.SwitchAt.Greater(rat.Rat{}) || !in.Duration.Greater(in.SwitchAt) {
		return nil, fmt.Errorf("lowerbound: need 0 < SwitchAt < Duration")
	}
	const x, y, z = 0, 1, 2
	dxy := in.Dc
	dyz := one
	dxz := in.Dc.Add(one)
	dist := [][]rat.Rat{
		{{}, dxy, dxz},
		{dxy, {}, dyz},
		{dxz, dyz, {}},
	}
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	net, err := network.New(fmt.Sprintf("counterexample-D%s", in.Dc), dist, adj)
	if err != nil {
		return nil, err
	}

	// x runs fast; y and z at 1 (the paper wants h_x > h_y > h_z; equal
	// rates for y and z suffice because the delay asymmetry does the work).
	scheds := []*clock.Schedule{
		clock.Constant(p.RateBandHigh()),
		clock.Constant(one),
		clock.Constant(one),
	}

	switchAt := in.SwitchAt
	adv := engine.FuncAdversary(func(from, to int, _ uint64, sendReal rat.Rat, bound rat.Rat) rat.Rat {
		switch {
		case from == x && to == y:
			if sendReal.Less(switchAt) {
				return bound // full delay Dc: y's view of x is stale
			}
			return rat.Rat{} // the news arrives instantly
		case from == x && to == z:
			return bound // z stays maximally stale throughout
		case from == y && to == z:
			return bound // the catch-up reaches z one second late
		default:
			return rat.Rat{} // return traffic is irrelevant; keep it fast
		}
	})

	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: adv,
		Protocol:  in.Protocol,
		Duration:  in.Duration,
		Rho:       p.Rho,
	})
	if err != nil {
		return nil, fmt.Errorf("lowerbound: counterexample run: %w", err)
	}

	res := &CounterexampleResult{Exec: exec}
	res.PeakYZ = piecewise.MaxDiff(exec.Logical[y], exec.Logical[z], switchAt, in.Duration)
	// The pre-switch window stops just short of SwitchAt so the jump that
	// occurs at the switch itself (right-continuous evaluation) is not
	// attributed to the quiet phase.
	preEnd := switchAt.Sub(one)
	if preEnd.Sign() < 0 {
		preEnd = rat.Rat{}
	}
	res.PreSwitchYZ = piecewise.MaxAbsDiff(exec.Logical[y], exec.Logical[z], rat.Rat{}, preEnd)
	res.Ratio = res.PeakYZ.Val.Float64() / in.Dc.Float64()
	return res, nil
}
