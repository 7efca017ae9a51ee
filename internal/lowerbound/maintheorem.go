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
	// Final is the last execution α_R, and FinalCfg the configuration that
	// produced it (composed schedules plus the scripted delays); Seed
	// exports FinalCfg to the worst-case search.
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
}

// MainTheorem runs the Theorem 8.1 construction against a protocol.
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
	half := rat.MustFrac(1, 2)

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
	alpha, err := engine.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: α₀: %w", err)
	}

	res := &MainTheoremResult{D: d, PaperTarget: rat.FromInt(int64(in.Rounds)).Div(rat.FromInt(24))}
	ik, jk, nk := 0, int(n0), n0

	for k := 0; k < in.Rounds; k++ {
		round := Round{K: k, NK: nk, IK: ik, JK: jk, SkewStart: alpha.FinalSkew(ik, jk)}
		s := cfg.Duration.Sub(tau.Mul(rat.FromInt(nk)))
		as, err := AddSkew(AddSkewInput{
			Cfg: cfg, Alpha: alpha, Positions: positions,
			I: ik, J: jk, S: s, Params: p,
		})
		if err != nil {
			return nil, fmt.Errorf("lowerbound: round %d add-skew: %w", k, err)
		}
		round.AddSkewGain = as.Gain
		round.SkewAfterBeta = as.SkewBeta

		nk1 := nk / in.Branch

		// Extension: a quiet slack segment absorbing in-flight stragglers
		// (slack = T − T' = n_k/(4+2ρ) covers the latest remapped receipt),
		// then the clean window of length τ·n_{k+1} required by the next
		// round's Add Skew preconditions.
		slack := cfg.Duration.Sub(as.TPrime)
		extDur := as.TPrime.Add(slack).Add(tau.Mul(rat.FromInt(nk1)))

		nextScheds := make([]*clock.Schedule, d)
		for i := range nextScheds {
			ns, err := as.BetaCfg.Schedules[i].WithRateFrom(as.TPrime, one)
			if err != nil {
				return nil, fmt.Errorf("lowerbound: round %d extension schedule %d: %w", k, i, err)
			}
			nextScheds[i] = ns
		}
		// Extension delays: replay β_k verbatim for messages it delivered;
		// give α-in-flight messages midpoint delays (they arrive after T' —
		// verified by the prefix check); keep remapped delays for messages
		// delivered in α but pushed past T' by the remap (they land inside
		// the slack); fresh messages get midpoint delays.
		script := make(map[trace.MsgKey]rat.Rat, len(as.Beta.Ledger))
		for i := range as.Beta.Ledger {
			rec := &as.Beta.Ledger[i]
			key := rec.Key
			switch {
			case rec.Delivered:
				script[key] = rec.Delay
			case as.InFlight[key]:
				script[key] = half.Mul(net.Dist(key.From, key.To))
			default:
				script[key] = rec.Delay
			}
		}
		nextCfg := engine.Config{
			Net:       net,
			Schedules: nextScheds,
			Adversary: engine.ScriptedAdversary{Delays: script, Fallback: engine.Midpoint()},
			Protocol:  in.Protocol,
			Duration:  extDur,
			Rho:       p.Rho,
			SizeHint:  as.Beta.Size(),
		}
		next, err := engine.Run(nextCfg)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: round %d extension: %w", k, err)
		}
		// The extension must leave β_k's past untouched (claim 8.3 setup).
		if err := trace.PrefixEqual(as.Beta, next, as.TPrime); err != nil {
			return nil, fmt.Errorf("lowerbound: round %d extension prefix: %w", k, err)
		}
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
