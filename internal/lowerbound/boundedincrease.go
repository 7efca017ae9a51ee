package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// BoundedIncreaseInput describes an application of Lemma 7.1 to node I of a
// recorded execution.
//
// Preconditions on Alpha (verified): duration ≥ τ + 1/2; every hardware rate
// within [1, 1+ρ/2] at all times; every delivered message to or from node I
// has delay within [d/4, 3d/4].
type BoundedIncreaseInput struct {
	Cfg    engine.Config
	Alpha  *trace.Execution
	I      int
	Params Params
}

// BoundedIncreaseResult certifies one application of the lemma.
//
// The lemma (contrapositive form): for an algorithm guaranteeing skew at most
// f(1) between distance-1 nodes, no node may gain more than 16·f(1) logical
// time in any unit of real time after τ. Constructively: if node I gains
// quickly, the speed-up execution β forces skew between node I and a
// distance-1 neighbor equal to what I gains over a 1/8 window plus whatever
// skew α already had — a certified lower bound on the algorithm's true f(1).
type BoundedIncreaseResult struct {
	I int
	// MaxIncrease is sup over unit windows in [τ, ℓ(α)] of L_I(t+1) − L_I(t)
	// in α, attained at IncreaseAt. The lemma: f(1) ≥ MaxIncrease/16.
	MaxIncrease rat.Rat
	IncreaseAt  rat.Rat
	// T0 is the chosen speed-up anchor: the densest 1/8-window in α starts
	// at T0; node I's clock runs ρ/4 fast during [T0 − τ, T0] in β.
	T0 rat.Rat
	// WindowGain = L^α_I(T0+1/8) − L^α_I(T0).
	WindowGain rat.Rat
	// Beta is the re-simulated speed-up execution (duration = the remapped
	// horizon m(ℓ(α)) so that node I observes exactly α's actions).
	Beta *trace.Execution
	// BetaSkew is max over distance-1 neighbors j of L^β_I(T0) − L^β_j(T0),
	// attained against BetaPeer.
	BetaSkew rat.Rat
	BetaPeer int
	// ImpliedF1 is the certified lower bound on this algorithm's worst-case
	// f(1): max(BetaSkew, MaxIncrease/16).
	ImpliedF1 rat.Rat
}

// BoundedIncrease measures node I's fastest unit-window logical increase in
// Alpha and performs the lemma's speed-up construction: node I's hardware
// rate gains ρ/4 during [T0 − τ, T0] (totalling exactly 1/4 extra hardware
// time, claim 7.2); all of node I's message delays are re-scripted so every
// node sees identical actions at identical hardware readings; the
// re-simulated β is checked for indistinguishability. In β node I reaches
// L^α_I(T0 + 1/8) by real time T0 while its neighbors' clocks are untouched.
func BoundedIncrease(in BoundedIncreaseInput) (*BoundedIncreaseResult, error) {
	p := in.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tau := p.Tau()
	alpha := in.Alpha
	T := alpha.Duration
	half := rat.MustFrac(1, 2)
	if T.Less(tau.Add(half)) {
		return nil, fmt.Errorf("lowerbound: duration %s < τ + 1/2", T)
	}
	n := alpha.N()
	if in.I < 0 || in.I >= n {
		return nil, fmt.Errorf("lowerbound: node %d out of range", in.I)
	}
	// Precondition 1: rates within [1, 1+ρ/2] at all times.
	if err := trace.CheckRateBounds(alpha, rat.Rat{}, T, rat.FromInt(1), p.RateBandHigh()); err != nil {
		return nil, fmt.Errorf("lowerbound: bounded-increase precondition (rates): %w", err)
	}
	// Precondition 2: node I's delivered message delays within [d/4, 3d/4].
	quarter, threeQ := rat.MustFrac(1, 4), rat.MustFrac(3, 4)
	var bad firstViolation
	for i := range alpha.Ledger {
		rec := &alpha.Ledger[i]
		key := rec.Key
		if (key.From != in.I && key.To != in.I) || !alpha.Delivered(rec) {
			continue
		}
		d := alpha.Net.Dist(key.From, key.To)
		if rec.Delay.Less(quarter.Mul(d)) || rec.Delay.Greater(threeQ.Mul(d)) {
			bad.note(key, fmt.Errorf("lowerbound: bounded-increase precondition (delays): message %v delay %s outside [d/4, 3d/4]",
				key, rec.Delay))
		}
	}
	if bad.err != nil {
		return nil, bad.err
	}

	res := &BoundedIncreaseResult{I: in.I}
	inc := core.MaxIncreasePerUnit(alpha, in.I, tau, T)
	res.MaxIncrease = inc.Val
	res.IncreaseAt = inc.At

	// Choose T0: densest 1/8-window within [τ, T − 1/2]. Staying 1/2 clear
	// of the end keeps T0 inside β's (slightly shorter) domain.
	eighth := rat.MustFrac(1, 8)
	t0, gain := densestWindow(alpha.Logical[in.I], tau, T.Sub(half), eighth)
	res.T0, res.WindowGain = t0, gain

	s0 := t0.Sub(tau)
	if s0.Sign() < 0 {
		return nil, fmt.Errorf("lowerbound: T0 = %s gives negative speed-up start", t0)
	}
	delta := p.Rho.Div(rat.FromInt(4))
	schedI, err := in.Cfg.Schedules[in.I].ModifyWindow(s0, t0, func(r rat.Rat) rat.Rat { return r.Add(delta) })
	if err != nil {
		return nil, fmt.Errorf("lowerbound: rate surgery: %w", err)
	}
	scheds := make([]*clock.Schedule, n)
	copy(scheds, in.Cfg.Schedules)
	scheds[in.I] = schedI

	// Node I's event-time remap: m(t) = H_β⁻¹(H_α(t)) ≤ t, with t − m(t) ≤
	// 1/4 (claim 7.2).
	remapI := func(t rat.Rat) (rat.Rat, error) {
		return schedI.RealAt(alpha.HWAt(in.I, t))
	}

	// β's horizon: node I has observed exactly α's actions when its hardware
	// reads H_α_I(T), i.e. at real time m(T).
	horizon, err := remapI(T)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: horizon remap: %w", err)
	}
	if t0.GreaterEq(horizon) {
		return nil, fmt.Errorf("lowerbound: T0 = %s beyond β horizon %s", t0, horizon)
	}

	// Scripted delays: identical for messages not involving I; remapped send
	// (From = I) or receive (To = I) times otherwise.
	script := make(map[trace.MsgKey]rat.Rat, len(alpha.Ledger))
	for i := range alpha.Ledger {
		rec := &alpha.Ledger[i]
		key := rec.Key
		switch {
		case !alpha.Delivered(rec):
			// In flight at ℓ(α): keep it in flight.
			script[key] = alpha.Net.Dist(key.From, key.To)
		case key.From == in.I:
			ms, err := remapI(rec.SendReal)
			if err != nil {
				bad.note(key, fmt.Errorf("lowerbound: remap send %v: %w", key, err))
				continue
			}
			script[key] = rec.RecvReal.Sub(ms)
		case key.To == in.I:
			mr, err := remapI(rec.RecvReal)
			if err != nil {
				bad.note(key, fmt.Errorf("lowerbound: remap recv %v: %w", key, err))
				continue
			}
			script[key] = mr.Sub(rec.SendReal)
		default:
			script[key] = rec.Delay
		}
	}
	if bad.err != nil {
		return nil, bad.err
	}

	// No Fallback, as in AddSkew: a send the script misses fails the run.
	betaCfg := in.Cfg
	betaCfg.Schedules = scheds
	betaCfg.Adversary = engine.ScriptedAdversary{Delays: script}
	betaCfg.Duration = horizon
	betaCfg.SizeHint = alpha.Size()

	beta, err := engine.Run(betaCfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: β re-simulation: %w", err)
	}
	if err := trace.CheckIndistinguishable(alpha, beta); err != nil {
		return nil, fmt.Errorf("lowerbound: bounded-increase indistinguishability: %w", err)
	}
	res.Beta = beta

	// Claim 7.3 consequence: H^β_I(T0) = H^α_I(T0) + 1/4 ≥ H^α_I(T0 + 1/8),
	// so by indistinguishability and validity L^β_I(T0) ≥ L^α_I(T0 + 1/8).
	if got, want := beta.LogicalAt(in.I, t0), alpha.LogicalAt(in.I, t0.Add(eighth)); got.Less(want) {
		return nil, fmt.Errorf("lowerbound: claim 7.3 failed: L^β_I(T0)=%s < L^α_I(T0+1/8)=%s", got, want)
	}

	// Skew certified at T0 against the closest neighbors.
	one := rat.FromInt(1)
	first := true
	for j := 0; j < n; j++ {
		if j == in.I || !alpha.Net.Dist(in.I, j).Equal(one) {
			continue
		}
		skew := beta.LogicalAt(in.I, t0).Sub(beta.LogicalAt(j, t0))
		if first || skew.Greater(res.BetaSkew) {
			first = false
			res.BetaSkew = skew
			res.BetaPeer = j
		}
	}
	if first {
		return nil, fmt.Errorf("lowerbound: node %d has no distance-1 neighbor", in.I)
	}
	res.ImpliedF1 = rat.Max(res.BetaSkew, res.MaxIncrease.Div(rat.FromInt(16)))
	return res, nil
}

// densestWindow finds the start t maximizing L(t+w) − L(t) for t in
// [from, to−w], scanning breakpoint-aligned candidates exactly.
func densestWindow(l *piecewise.PLF, from, to, w rat.Rat) (rat.Rat, rat.Rat) {
	best := from
	bestGain := l.Eval(from.Add(w)).Sub(l.Eval(from))
	consider := func(t rat.Rat) {
		if t.Less(from) || t.Greater(to.Sub(w)) {
			return
		}
		if g := l.Eval(t.Add(w)).Sub(l.Eval(t)); g.Greater(bestGain) {
			best, bestGain = t, g
		}
	}
	for _, b := range l.Breakpoints() {
		consider(b)
		consider(b.Sub(w))
	}
	consider(to.Sub(w))
	return best, bestGain
}
