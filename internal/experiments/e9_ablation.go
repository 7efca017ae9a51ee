package experiments

import (
	"fmt"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// E9Options configures the design-choice ablations (E9 in the README's
// "Experiment index").
type E9Options struct {
	N        int
	Duration rat.Rat
	Rho      rat.Rat
	Seed     uint64
	// Thresholds and FastMults sweep the gradient protocol.
	Thresholds []rat.Rat
	FastMults  []rat.Rat
	// JumpCaps sweeps BoundedMax and probes Lemma 7.1 per cap.
	JumpCaps []rat.Rat
	Params   lowerbound.Params
}

// DefaultE9 returns the benchmark configuration.
func DefaultE9() E9Options {
	return E9Options{
		N:        17,
		Duration: rat.FromInt(48),
		Rho:      rat.MustFrac(1, 2),
		Seed:     7,
		Thresholds: []rat.Rat{
			rat.MustFrac(1, 2), rat.FromInt(1), rat.FromInt(2), rat.FromInt(4),
		},
		FastMults: []rat.Rat{rat.FromInt(2), rat.FromInt(4), rat.FromInt(8)},
		JumpCaps: []rat.Rat{
			rat.MustFrac(1, 4), rat.FromInt(1), rat.FromInt(4), rat.FromInt(64),
		},
		Params: lowerbound.DefaultParams(),
	}
}

// E9GradientRow is one gradient-parameter outcome.
type E9GradientRow struct {
	Threshold rat.Rat
	FastMult  rat.Rat
	Local     rat.Rat
	Global    rat.Rat
	Messages  int
}

// E9CapRow is one BoundedMax jump-cap outcome.
type E9CapRow struct {
	Cap rat.Rat
	// MaxIncrease is the Lemma 7.1 quantity on the clean line (≈ how
	// "jumpy" the algorithm is).
	MaxIncrease rat.Rat
	// AdvPeak is the §2 adversarial distance-1 skew at Dc = 16.
	AdvPeak rat.Rat
	Local   rat.Rat
	Global  rat.Rat
}

// E9Ablations sweeps the two design knobs E9 covers:
//
//  1. the gradient protocol's (threshold, fast-multiplier): lower thresholds
//     buy tighter local skew at the cost of more mode switches; the fast
//     multiplier must exceed (1+ρ)/(1−ρ) to catch drifting clocks at all;
//  2. BoundedMax's jump cap: the knob that walks from gradient-like bounded
//     increase (small cap) to MaxGossip's unbounded jumps (huge cap),
//     showing the Bounded Increase lemma's quantity and the adversarial
//     local skew rising together.
func E9Ablations(opt E9Options) ([]E9GradientRow, []E9CapRow, *Table, *Table, error) {
	runLine := func(proto engine.Protocol) (*core.PairSkew, *core.PairSkew, int, error) {
		net, err := network.Line(opt.N)
		if err != nil {
			return nil, nil, 0, err
		}
		scheds, err := clock.Diverse(opt.N, rat.FromInt(1),
			rat.FromInt(1).Add(opt.Rho.Div(rat.FromInt(2))), 4, opt.Seed)
		if err != nil {
			return nil, nil, 0, err
		}
		exec, err := engine.Run(engine.Config{
			Net:       net,
			Schedules: scheds,
			Adversary: engine.HashAdversary{Seed: opt.Seed, Denom: 8},
			Protocol:  proto,
			Duration:  opt.Duration,
			Rho:       opt.Rho,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		if err := core.CheckValidity(exec); err != nil {
			return nil, nil, 0, err
		}
		l := core.LocalSkew(exec)
		g := core.GlobalSkew(exec)
		return &l, &g, len(exec.Ledger), nil
	}

	var gradRows []E9GradientRow
	for _, th := range opt.Thresholds {
		for _, fm := range opt.FastMults {
			params := algorithms.GradientParams{
				Period:    rat.FromInt(1),
				Threshold: th,
				FastMult:  fm,
			}
			local, global, msgs, err := runLine(algorithms.Gradient(params))
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("e9 gradient th=%s fm=%s: %w", th, fm, err)
			}
			gradRows = append(gradRows, E9GradientRow{
				Threshold: th, FastMult: fm,
				Local: local.Skew, Global: global.Skew, Messages: msgs,
			})
		}
	}

	var capRows []E9CapRow
	for _, c := range opt.JumpCaps {
		proto := algorithms.BoundedMax(rat.FromInt(1), c)
		local, global, _, err := runLine(proto)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("e9 cap=%s: %w", c, err)
		}
		// Lemma 7.1 probe on the clean line.
		inc, err := cleanLineIncrease(proto, opt.Params)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("e9 cap=%s probe: %w", c, err)
		}
		// §2 adversarial local skew.
		dc := rat.FromInt(16)
		switchAt := dc.Div(opt.Rho.Div(rat.FromInt(2))).Add(dc)
		cex, err := lowerbound.Counterexample(lowerbound.CounterexampleInput{
			Protocol: proto, Dc: dc, SwitchAt: switchAt,
			Duration: switchAt.Add(rat.FromInt(8)), Params: opt.Params,
		})
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("e9 cap=%s counterexample: %w", c, err)
		}
		capRows = append(capRows, E9CapRow{
			Cap: c, MaxIncrease: inc, AdvPeak: cex.PeakYZ.Val,
			Local: local.Skew, Global: global.Skew,
		})
	}

	gt := &Table{
		ID:     "E9a",
		Title:  "gradient protocol ablation: threshold × fast-multiplier → local/global skew, message cost",
		Header: []string{"threshold", "fastMult", "local skew", "global skew", "messages"},
	}
	for _, r := range gradRows {
		gt.Rows = append(gt.Rows, []string{
			fmtRat(r.Threshold), fmtRat(r.FastMult), fmtRat(r.Local), fmtRat(r.Global),
			fmt.Sprintf("%d", r.Messages),
		})
	}
	gt.Notes = append(gt.Notes,
		"the multiplier must exceed the worst rate ratio across the network to catch up at all ((1+ρ)/(1−ρ) in the extreme; max/min observed rate here), but over-aggressive multipliers overshoot and oscillate, inflating both skews — moderate multiplier + small threshold wins")

	ct := &Table{
		ID:     "E9b",
		Title:  "BoundedMax jump-cap ablation: bounded increase vs adversarial distance-1 skew (Lemma 7.1 in action)",
		Header: []string{"cap", "max L(t+1)-L(t)", "adversarial d=1 skew", "local skew", "global skew"},
	}
	for _, r := range capRows {
		ct.Rows = append(ct.Rows, []string{
			fmtRat(r.Cap), fmtRat(r.MaxIncrease), fmtRat(r.AdvPeak), fmtRat(r.Local), fmtRat(r.Global),
		})
	}
	ct.Notes = append(ct.Notes,
		"expected shape: adversarial local skew grows with the cap — fast clock-raising is exactly what the Bounded Increase lemma punishes")
	return gradRows, capRows, gt, ct, nil
}

// cleanLineIncrease measures the worst unit-window increase across interior
// nodes of a clean (rates-1, midpoint) line — the Lemma 7.1 quantity.
func cleanLineIncrease(proto engine.Protocol, p lowerbound.Params) (rat.Rat, error) {
	const n = 9
	net, err := network.Line(n)
	if err != nil {
		return rat.Rat{}, err
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(rat.FromInt(1))
	}
	cfg := engine.Config{
		Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
		Protocol: proto, Duration: rat.FromInt(24), Rho: p.Rho,
	}
	exec, err := engine.Run(cfg)
	if err != nil {
		return rat.Rat{}, err
	}
	worst := rat.Rat{}
	for i := 1; i < n-1; i++ {
		if v := core.MaxIncreasePerUnit(exec, i, p.Tau(), exec.Duration).Val; v.Greater(worst) {
			worst = v
		}
	}
	return worst, nil
}
