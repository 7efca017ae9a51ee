package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// MainTheoremInput configures the iterated construction of Theorem 8.1.
//
// The line has n₀ = Branch^Rounds unit-spaced intervals (n₀+1 nodes). Each
// round applies the Add Skew lemma to the current pair (i_k, j_k) with
// j_k − i_k = n_k, extends the resulting β_k with a quiet midpoint-delay
// segment, and picks the best sub-pair at separation n_{k+1} = n_k/Branch by
// the pigeonhole of claim 8.5.
//
// The paper's branching factor is 384·τ·f(1), chosen so the Bounded Increase
// lemma guarantees the skew added per round is twice the skew lost during
// the extension; with that value, Ω(log D / log log D) rounds fit in a
// diameter-D network. The factor is configurable because 384·τ·f(1) forces
// astronomically large networks; the per-round certificates report the
// actual gain and loss so the guaranteed-versus-measured comparison is
// explicit at any branching factor.
type MainTheoremInput struct {
	Protocol engine.Protocol
	Params   Params
	// Branch is the block shrink factor B = n_k / n_{k+1} (≥ 2).
	Branch int64
	// Rounds is the number of Add Skew applications R; the network has
	// Branch^Rounds + 1 nodes.
	Rounds int

	// fromScratch starts every round on a fresh engine instead of resuming
	// the previous round's checkpoint. Results are identical either way;
	// the equivalence tests set it.
	fromScratch bool
	// observe, if set, is given each round's size hint and the two
	// snapshots the round took, β_k at T' and α_{k+1}; the hint and
	// delivery tests set it.
	observe func(k int, hint trace.Size, beta, next *trace.Execution)
}

// Round reports one iteration k → k+1.
type Round struct {
	K      int   // round index (0-based)
	NK     int64 // separation n_k of the pair worked on
	IK, JK int
	// SkewStart = L_{i_k} − L_{j_k} at ℓ(α_k) (the paper's Δ_k).
	SkewStart rat.Rat
	// AddSkewGain is the certified gain from Lemma 6.1 (≥ n_k/(8+4ρ)).
	AddSkewGain rat.Rat
	// SkewAfterBeta = L_{i_k} − L_{j_k} at ℓ(β_k).
	SkewAfterBeta rat.Rat
	// ExtensionLoss is how much the pair's skew decayed during the
	// extension (the quantity the Bounded Increase lemma caps).
	ExtensionLoss rat.Rat
	// NextNK, NextIK, NextJK describe the sub-pair chosen by pigeonhole.
	NextNK         int64
	NextIK, NextJK int
	// NextSkew = Δ_{k+1} for the chosen sub-pair at ℓ(α_{k+1}).
	NextSkew rat.Rat
	// Target is the paper's property 1.2 milestone: (k+1)/24 · n_{k+1}.
	Target rat.Rat
	// TargetMet reports NextSkew ≥ Target. Guaranteed only when Branch ≥
	// 384·τ·f(1); informational otherwise.
	TargetMet bool
}

// MainTheoremResult is the outcome of the full construction.
type MainTheoremResult struct {
	D      int // number of nodes
	Rounds []Round
	// Final is the last execution α_R, and FinalCfg a configuration whose
	// run from time 0 is Final (composed schedules plus the scripted
	// delays); Seed exports FinalCfg to the worst-case search.
	Final    *trace.Execution
	FinalCfg engine.Config
	// AdjacentI and AdjacentSkew: the adjacent pair (i, i+1) with the
	// largest final skew — the paper's claim 8.7 quantity, which it proves
	// reaches k/24 = Ω(log D / log log D).
	AdjacentI    int
	AdjacentSkew rat.Rat
	// PaperTarget = R/24: the adjacent skew property 1.2 + claim 8.7 would
	// guarantee after R rounds at the paper's branching factor.
	PaperTarget rat.Rat
	// Steps counts the engine events the whole construction dispatched:
	// α₀, every round, and the events a resumed checkpoint replays.
	Steps uint64
}

// MainTheorem runs the Theorem 8.1 construction against a protocol.
//
// Each round k is simulated once, on one engine run from the extension's
// configuration: β_k's surgery schedules with rate 1 from T'_k, and β_k's
// remapped delay for every message β_k sends by T'_k, except that a message
// still in flight at the end of α_k gets the midpoint delay, as does every
// later message. Up to T'_k that run is β_k (Lemma 6.1): its snapshot there
// is checked against α_k for claims 6.2–6.5, and claim 6.2 also fails if a
// message in flight at the end of α_k lands by T'_k. Run on through the
// extension, the same engine gives α_{k+1}.
//
// Before its divergence time (see skewPlan), round k+1's run dispatches
// exactly what round k's did. That time is the earlier of S_{k+1}, which
// lies past T'_k, and the first send whose delay round k+1 re-scripts. So
// just before round k dispatches anything at T'_k it forks a checkpoint;
// round k+1 steps that checkpoint to its divergence time, swaps in its
// schedules and adversary, and goes on from there. Round 0, whose
// divergence time is S₀ = 0, and any round whose divergence time comes
// before its checkpoint start a fresh engine instead.
func MainTheorem(in MainTheoremInput) (*MainTheoremResult, error) {
	p := in.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if in.Branch < 2 {
		return nil, fmt.Errorf("lowerbound: branch %d < 2", in.Branch)
	}
	if in.Rounds < 1 {
		return nil, fmt.Errorf("lowerbound: rounds %d < 1", in.Rounds)
	}
	n0 := int64(1)
	for r := 0; r < in.Rounds; r++ {
		if n0 > 1<<20/in.Branch {
			return nil, fmt.Errorf("lowerbound: %d rounds at branch %d is too large", in.Rounds, in.Branch)
		}
		n0 *= in.Branch
	}
	d := int(n0) + 1
	net, err := network.Line(d)
	if err != nil {
		return nil, err
	}
	positions := make([]rat.Rat, d)
	for k := range positions {
		positions[k] = rat.FromInt(int64(k))
	}

	tau := p.Tau()
	one := rat.FromInt(1)

	// α₀: rate-1 clocks, midpoint delays, duration τ·n₀.
	scheds := make([]*clock.Schedule, d)
	for k := range scheds {
		scheds[k] = clock.Constant(one)
	}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  in.Protocol,
		Duration:  tau.Mul(rat.FromInt(n0)),
		Rho:       p.Rho,
	}
	run0, err := newBranch(cfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: α₀: %w", err)
	}
	alpha, err := run0.runTo(cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: α₀: %w", err)
	}

	res := &MainTheoremResult{D: d, PaperTarget: rat.FromInt(int64(in.Rounds)).Div(rat.FromInt(24))}
	ch := chain{fromScratch: in.fromScratch, steps: run0.eng.Steps()}
	ik, jk, nk := 0, int(n0), n0

	for k := 0; k < in.Rounds; k++ {
		round := Round{K: k, NK: nk, IK: ik, JK: jk, SkewStart: alpha.FinalSkew(ik, jk)}
		s := cfg.Duration.Sub(tau.Mul(rat.FromInt(nk)))
		asIn := AddSkewInput{
			Cfg: cfg, Alpha: alpha, Positions: positions,
			I: ik, J: jk, S: s, Params: p,
		}
		plan, err := planAddSkew(asIn)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: round %d add-skew: %w", k, err)
		}

		nk1 := nk / in.Branch

		// Extension past T': a quiet slack segment up to T absorbing
		// in-flight stragglers (slack = T − T' = n_k/(4+2ρ) covers the
		// latest remapped receipt), then the clean window of length
		// τ·n_{k+1} required by the next round's Add Skew preconditions.
		extDur := cfg.Duration.Add(tau.Mul(rat.FromInt(nk1)))
		nextCfg, err := roundConfig(asIn, plan, extDur)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: round %d %w", k, err)
		}
		as, next, err := ch.round(k, asIn, plan, nextCfg, k+1 < in.Rounds)
		if err != nil {
			return nil, err
		}
		if in.observe != nil {
			in.observe(k, nextCfg.SizeHint, as.Beta, next)
		}
		round.AddSkewGain = as.Gain
		round.SkewAfterBeta = as.SkewBeta

		// Property 1.4 (rates in [1, 1+ρ/2]) and 1.5 (delays in
		// [d/4, 3d/4]) for the next iteration's preconditions.
		if err := trace.CheckRateBounds(next, rat.Rat{}, extDur, one, p.RateBandHigh()); err != nil {
			return nil, fmt.Errorf("lowerbound: round %d property 1.4: %w", k, err)
		}
		if err := trace.CheckDelayBounds(next, rat.Rat{}, extDur, rat.MustFrac(1, 4), rat.MustFrac(3, 4)); err != nil {
			return nil, fmt.Errorf("lowerbound: round %d property 1.5: %w", k, err)
		}

		round.ExtensionLoss = as.SkewBeta.Sub(next.FinalSkew(ik, jk))

		// Claim 8.5's pigeonhole: the best aligned sub-pair at separation
		// n_{k+1} inherits at least a 1/Branch share of the pair's skew.
		bestI, first := ik, true
		var bestSkew rat.Rat
		for i2 := ik; i2+int(nk1) <= jk; i2 += int(nk1) {
			skew := next.FinalSkew(i2, i2+int(nk1))
			if first || skew.Greater(bestSkew) {
				first = false
				bestI, bestSkew = i2, skew
			}
		}
		round.NextNK = nk1
		round.NextIK, round.NextJK = bestI, bestI+int(nk1)
		round.NextSkew = bestSkew
		round.Target = rat.FromInt(int64(k + 1)).Mul(rat.FromInt(nk1)).Div(rat.FromInt(24))
		round.TargetMet = bestSkew.GreaterEq(round.Target)
		res.Rounds = append(res.Rounds, round)

		alpha, cfg = next, nextCfg
		ik, jk, nk = bestI, bestI+int(nk1), nk1
	}

	res.Final = alpha
	res.FinalCfg = cfg
	res.Steps = ch.steps
	first := true
	for i := 0; i+1 < d; i++ {
		skew := alpha.FinalSkew(i, i+1)
		if first || skew.Greater(res.AdjacentSkew) {
			first = false
			res.AdjacentI = i
			res.AdjacentSkew = skew
		}
	}
	return res, nil
}

// roundConfig is the configuration of a round, given its Add Skew input
// and plan: β's surgery schedules with rate 1 from T', and roundScript's
// delays with the Midpoint fallback, run through dur, its recorder sized by
// roundHint. Its run is β up to T', and α_{k+1} through dur.
func roundConfig(in AddSkewInput, plan *skewPlan, dur rat.Rat) (engine.Config, error) {
	scheds := make([]*clock.Schedule, len(plan.scheds))
	for i, s := range plan.scheds {
		ns, err := s.WithRateFrom(plan.tPrime, rat.FromInt(1))
		if err != nil {
			return engine.Config{}, fmt.Errorf("extension schedule %d: %w", i, err)
		}
		scheds[i] = ns
	}
	cfg := in.Cfg
	cfg.Schedules = scheds
	cfg.Adversary = engine.ScriptedAdversary{Delays: roundScript(plan, in.Alpha), Fallback: engine.Midpoint()}
	cfg.Duration = dur
	cfg.SizeHint = roundHint(in.Alpha, scheds, dur)
	return cfg, nil
}

// roundHint estimates the Size of a round's run through dur, on schedules
// scheds, from α_k. Timers fire on hardware time, so a node's action count
// follows the hardware time it covers: each node's count in α_k is scaled by
// its hardware reading at dur over its reading at ℓ(α_k), with 1/16 to
// spare, and rounded up. The action total is the sum, and the message count
// is scaled by the same factor as the total.
func roundHint(alpha *trace.Execution, scheds []*clock.Schedule, dur rat.Rat) trace.Size {
	size := alpha.Size()
	spare := rat.MustFrac(17, 16)
	hint := trace.Size{Messages: size.Messages, PerNode: make([]int, len(size.PerNode))}
	for i, k := range size.PerNode {
		grow := scheds[i].HW(dur).Div(alpha.HWAt(i, alpha.Duration)).Mul(spare)
		hint.PerNode[i] = int(grow.Mul(rat.FromInt(int64(k))).Ceil())
		hint.Actions += hint.PerNode[i]
	}
	if size.Actions > 0 {
		hint.Messages = (size.Messages*hint.Actions + size.Actions - 1) / size.Actions
	}
	return hint
}

// roundScript is a round's delay script: β's remapped delay for every
// message β sends by T', except the midpoint for a message still in flight
// at the end of α, which β need only keep in flight through T' and which
// the extension delivers. Every message sent later is the extension's own
// and takes the Midpoint fallback.
func roundScript(plan *skewPlan, alpha *trace.Execution) map[trace.MsgKey]rat.Rat {
	half := rat.MustFrac(1, 2)
	script := make(map[trace.MsgKey]rat.Rat, len(alpha.Ledger))
	for i := range alpha.Ledger {
		rec := &alpha.Ledger[i]
		switch {
		case !plan.sendsBy(rec):
		case alpha.Delivered(rec):
			script[rec.Key] = plan.delays[i]
		default:
			script[rec.Key] = half.Mul(alpha.Net.Dist(rec.Key.From, rec.Key.To))
		}
	}
	return script
}

// chain carries the construction from round to round: the checkpoint the
// last round forked, and the engine events dispatched so far.
type chain struct {
	fromScratch bool
	ckpt        *branch
	steps       uint64
}

// round simulates round k once on one engine (see MainTheorem) and returns
// the Add Skew certificate of its snapshot at T' and its run through
// cfg.Duration, α_{k+1}. With more set, it leaves a checkpoint for the next
// round.
func (c *chain) round(k int, in AddSkewInput, plan *skewPlan, cfg engine.Config, more bool) (*AddSkewResult, *trace.Execution, error) {
	b, base, err := c.resume(plan.diverge, cfg)
	if err == nil {
		err = b.stepBefore(plan.tPrime)
	}
	if err == nil && more {
		c.ckpt, err = b.fork()
	}
	var beta *trace.Execution
	if err == nil {
		beta, err = b.runTo(plan.tPrime)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lowerbound: round %d add-skew: β simulation: %w", k, err)
	}
	as, err := plan.check(in, beta)
	if err != nil {
		return nil, nil, fmt.Errorf("lowerbound: round %d add-skew: %w", k, err)
	}
	next, err := b.runTo(cfg.Duration)
	if err != nil {
		return nil, nil, fmt.Errorf("lowerbound: round %d extension: %w", k, err)
	}
	c.steps += b.eng.Steps() - base
	return as, next, nil
}

// resume returns the engine a round runs on and its step count so far. A
// checkpoint that precedes the round's divergence time reserves
// cfg.SizeHint, is stepped to just before that time and is given cfg's
// schedules and adversary: from there on it runs exactly as cfg would from
// time 0. Otherwise the round starts fresh.
func (c *chain) resume(diverge rat.Rat, cfg engine.Config) (*branch, uint64, error) {
	ck := c.ckpt
	c.ckpt = nil
	if c.fromScratch || ck == nil || !ck.eng.Now().Less(diverge) {
		b, err := newBranch(cfg)
		return b, 0, err
	}
	base := ck.eng.Steps()
	ck.rec.Reserve(cfg.SizeHint)
	if err := ck.stepBefore(diverge); err != nil {
		return nil, 0, err
	}
	for i, s := range cfg.Schedules {
		if err := ck.eng.SwapSchedule(i, s); err != nil {
			return nil, 0, err
		}
	}
	if err := ck.eng.SetAdversary(cfg.Adversary); err != nil {
		return nil, 0, err
	}
	return ck, base, nil
}

// branch is an engine and the recorder that has seen its whole run.
type branch struct {
	eng *engine.Engine
	rec *trace.Recorder
}

// newBranch starts an engine from cfg, its recorder reserving cfg.SizeHint.
func newBranch(cfg engine.Config) (*branch, error) {
	eng, err := engine.New(cfg.Net,
		engine.WithProtocol(cfg.Protocol),
		engine.WithAdversary(cfg.Adversary),
		engine.WithSchedules(cfg.Schedules),
		engine.WithRho(cfg.Rho),
	)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(cfg.Net.N())
	rec.Reserve(cfg.SizeHint)
	eng.Observe(rec)
	return &branch{eng: eng, rec: rec}, nil
}

// stepBefore dispatches every pending event earlier than t.
func (b *branch) stepBefore(t rat.Rat) error {
	for {
		next, ok := b.eng.NextEventTime()
		if !ok || !next.Less(t) {
			return nil
		}
		if _, err := b.eng.Step(); err != nil {
			return err
		}
	}
}

// fork returns an independent copy of b at its current point.
func (b *branch) fork() (*branch, error) {
	eng, err := b.eng.Fork()
	if err != nil {
		return nil, err
	}
	rec := b.rec.Clone()
	eng.Observe(rec)
	return &branch{eng: eng, rec: rec}, nil
}

// runTo runs b through real time t and returns its execution so far.
func (b *branch) runTo(t rat.Rat) (*trace.Execution, error) {
	if err := b.eng.RunUntil(t); err != nil {
		return nil, err
	}
	return b.eng.Execution(b.rec)
}
