package experiments

import (
	"fmt"
	"sort"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// E11Options configures the multi-seed robustness sweep.
type E11Options struct {
	Protocols []engine.Protocol
	N         int
	Duration  rat.Rat
	Rho       rat.Rat
	Seeds     []uint64
}

// DefaultE11 returns the benchmark configuration.
func DefaultE11(protos []engine.Protocol) E11Options {
	return E11Options{
		Protocols: protos,
		N:         17,
		Duration:  rat.FromInt(48),
		Rho:       rat.MustFrac(1, 2),
		Seeds:     []uint64{1, 2, 3, 5, 8, 13, 21, 34},
	}
}

// E11Row aggregates one protocol across seeds.
type E11Row struct {
	Protocol    string
	Seeds       int
	LocalMedian float64
	LocalMax    float64
	GlobalMed   float64
	GlobalMax   float64
}

// E11Seeds runs every protocol across several (drift, delay) seeds and
// aggregates local/global skew. Single-seed experiments can flatter or
// punish an algorithm by accident; this sweep shows which orderings are
// stable. (The lower-bound experiments E1–E5 need no such treatment: their
// schedules are the worst case by construction.)
func E11Seeds(opt E11Options) ([]E11Row, *Table, error) {
	var rows []E11Row
	for _, proto := range opt.Protocols {
		var locals, globals []float64
		for _, seed := range opt.Seeds {
			net, err := network.Line(opt.N)
			if err != nil {
				return nil, nil, err
			}
			scheds, err := clock.Diverse(opt.N, rat.FromInt(1),
				rat.FromInt(1).Add(opt.Rho.Div(rat.FromInt(2))), 4, seed)
			if err != nil {
				return nil, nil, err
			}
			exec, err := engine.Run(engine.Config{
				Net:       net,
				Schedules: scheds,
				Adversary: engine.HashAdversary{Seed: seed, Denom: 8},
				Protocol:  proto,
				Duration:  opt.Duration,
				Rho:       opt.Rho,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e11 %s seed=%d: %w", proto.Name(), seed, err)
			}
			if err := core.CheckValidity(exec); err != nil {
				return nil, nil, fmt.Errorf("e11 %s seed=%d: %w", proto.Name(), seed, err)
			}
			locals = append(locals, core.LocalSkew(exec).Skew.Float64())
			globals = append(globals, core.GlobalSkew(exec).Skew.Float64())
		}
		rows = append(rows, E11Row{
			Protocol:    proto.Name(),
			Seeds:       len(opt.Seeds),
			LocalMedian: median(locals),
			LocalMax:    maxOf(locals),
			GlobalMed:   median(globals),
			GlobalMax:   maxOf(globals),
		})
	}
	table := &Table{
		ID:     "E11",
		Title:  fmt.Sprintf("multi-seed robustness (%d seeds, %d-node line): skew distributions", len(opt.Seeds), opt.N),
		Header: []string{"protocol", "local med", "local max", "global med", "global max"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol,
			fmt.Sprintf("%.3f", r.LocalMedian), fmt.Sprintf("%.3f", r.LocalMax),
			fmt.Sprintf("%.3f", r.GlobalMed), fmt.Sprintf("%.3f", r.GlobalMax),
		})
	}
	table.Notes = append(table.Notes,
		"benign-schedule orderings are stable across seeds; contrast with the adversarial schedules of E5/E7 where max-based local skew scales with D")
	return rows, table, nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64{}, vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
