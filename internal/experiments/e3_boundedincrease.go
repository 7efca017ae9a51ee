package experiments

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// E3Options configures the Bounded Increase experiment.
type E3Options struct {
	Protocols []engine.Protocol
	N         int
	Duration  rat.Rat
	// Node probes a specific node when >= 0; otherwise the node with the
	// largest measured increase is probed.
	Node   int
	Seed   uint64
	Params lowerbound.Params
}

// DefaultE3 returns the benchmark configuration. The base execution uses
// drift-diverse rates within the lemma's allowed band [1, 1+ρ/2] — on a
// perfectly clean line no algorithm ever jumps and the probe is vacuous.
func DefaultE3(protos []engine.Protocol) E3Options {
	return E3Options{
		Protocols: protos,
		N:         9,
		Duration:  rat.FromInt(24),
		Node:      -1,
		Seed:      5,
		Params:    lowerbound.DefaultParams(),
	}
}

// E3Row is one protocol's measurement.
type E3Row struct {
	Protocol    string
	Node        int
	MaxIncrease rat.Rat
	WindowGain  rat.Rat
	BetaSkew    rat.Rat
	ImpliedF1   rat.Rat
}

// E3BoundedIncrease probes Lemma 7.1: how fast each protocol raises a
// logical clock, and the distance-1 skew the speed-up adversary extracts
// from that. The lemma's reading: implied f(1) ≥ max(betaSkew,
// maxIncrease/16) — algorithms that jump (max-based) pay in forced local
// skew; rate-bounded algorithms (gradient) do not.
func E3BoundedIncrease(opt E3Options) ([]E3Row, *Table, error) {
	var rows []E3Row
	for _, proto := range opt.Protocols {
		net, err := network.Line(opt.N)
		if err != nil {
			return nil, nil, err
		}
		// Rates diverse within [1, 1+ρ/2] (precondition 1 of the lemma),
		// midpoint delays (within [d/4, 3d/4], precondition 2): drift makes
		// jump-based algorithms actually jump.
		scheds, err := clock.Diverse(opt.N, rat.FromInt(1), opt.Params.RateBandHigh(), 4, opt.Seed)
		if err != nil {
			return nil, nil, err
		}
		cfg := engine.Config{
			Net:       net,
			Schedules: scheds,
			Adversary: engine.Midpoint(),
			Protocol:  proto,
			Duration:  opt.Duration,
			Rho:       opt.Params.Rho,
		}
		alpha, err := engine.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("e3 %s: %w", proto.Name(), err)
		}
		probe := opt.Node
		if probe < 0 {
			// Probe the node whose clock climbed fastest.
			var worst rat.Rat
			for i := 0; i < opt.N; i++ {
				if v := core.MaxIncreasePerUnit(alpha, i, opt.Params.Tau(), alpha.Duration).Val; v.Greater(worst) {
					worst, probe = v, i
				}
			}
		}
		res, err := lowerbound.BoundedIncrease(lowerbound.BoundedIncreaseInput{
			Cfg: cfg, Alpha: alpha, I: probe, Params: opt.Params,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("e3 %s: %w", proto.Name(), err)
		}
		rows = append(rows, E3Row{
			Protocol:    proto.Name(),
			Node:        probe,
			MaxIncrease: res.MaxIncrease,
			WindowGain:  res.WindowGain,
			BetaSkew:    res.BetaSkew,
			ImpliedF1:   res.ImpliedF1,
		})
	}
	table := &Table{
		ID:     "E3",
		Title:  "Bounded Increase lemma (7.1): unit-window logical gain and the local skew the speed-up execution certifies",
		Header: []string{"protocol", "node", "max L(t+1)-L(t)", "best 1/8-window", "β skew @ d=1", "implied f(1) ≥"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol, fmt.Sprintf("%d", r.Node), fmtRat(r.MaxIncrease), fmtRat(r.WindowGain),
			fmtRat(r.BetaSkew), fmtRat(r.ImpliedF1),
		})
	}
	table.Notes = append(table.Notes,
		"paper: an f-GCS algorithm must keep L(t+1)−L(t) ≤ 16·f(1); measured: the gradient protocol's increase is a small constant while β-skew certifies f(1) lower bounds for each protocol")
	return rows, table, nil
}
