package experiments

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/workload"
)

// E8Options configures the application-level experiment.
type E8Options struct {
	Protocols []engine.Protocol
	N         int
	Duration  rat.Rat
	Rho       rat.Rat
	Seed      uint64
	// Tracking distances to probe (sensor 0 to sensor d).
	TrackDists []int
	Speed      rat.Rat
	CrossAt    rat.Rat
}

// DefaultE8 returns the benchmark configuration.
func DefaultE8(protos []engine.Protocol) E8Options {
	return E8Options{
		Protocols:  protos,
		N:          15,
		Duration:   rat.FromInt(60),
		Rho:        rat.MustFrac(1, 2),
		Seed:       13,
		TrackDists: []int{1, 2, 4, 8},
		Speed:      rat.MustFrac(1, 2),
		CrossAt:    rat.FromInt(30),
	}
}

// E8Row is one protocol's application metrics.
type E8Row struct {
	Protocol    string
	SiblingSkew rat.Rat
	GlobalSkew  rat.Rat
	// TrackErrPct[i] is the velocity error at TrackDists[i].
	TrackErrPct []float64
}

// E8Applications runs the two §1 motivating applications on every protocol:
// data-fusion sibling consistency in a binary aggregation tree, and
// target-tracking velocity error as a function of sensor separation.
func E8Applications(opt E8Options) ([]E8Row, *Table, error) {
	var rows []E8Row
	for _, proto := range opt.Protocols {
		net, err := network.Line(opt.N)
		if err != nil {
			return nil, nil, err
		}
		scheds, err := clock.Diverse(opt.N, rat.FromInt(1),
			rat.FromInt(1).Add(opt.Rho.Div(rat.FromInt(2))), 4, opt.Seed)
		if err != nil {
			return nil, nil, err
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
			return nil, nil, fmt.Errorf("e8 %s: %w", proto.Name(), err)
		}
		fusion, err := workload.FusionConsistency(exec, workload.BinaryFusionTree(opt.N))
		if err != nil {
			return nil, nil, err
		}
		row := E8Row{
			Protocol:    proto.Name(),
			SiblingSkew: fusion.Worst.MaxSkew,
			GlobalSkew:  fusion.GlobalSkew,
		}
		for _, d := range opt.TrackDists {
			rep, err := workload.Tracking(exec, workload.TrackingConfig{
				I: 0, J: d, CrossAt: opt.CrossAt, Speed: opt.Speed,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e8 %s track d=%d: %w", proto.Name(), d, err)
			}
			row.TrackErrPct = append(row.TrackErrPct, rep.ErrPct)
		}
		rows = append(rows, row)
	}
	table := &Table{
		ID:     "E8",
		Title:  "application metrics (§1 motivation): fusion sibling skew and tracking velocity error vs sensor distance",
		Header: []string{"protocol", "sibling skew", "global skew"},
	}
	for _, d := range opt.TrackDists {
		table.Header = append(table.Header, fmt.Sprintf("vel.err%%@d=%d", d))
	}
	for _, r := range rows {
		row := []string{r.Protocol, fmtRat(r.SiblingSkew), fmtRat(r.GlobalSkew)}
		for _, e := range r.TrackErrPct {
			row = append(row, fmt.Sprintf("%.1f", e))
		}
		table.Rows = append(table.Rows, row)
	}
	table.Notes = append(table.Notes,
		"expected shape: velocity error falls with sensor distance for fixed skew (the paper's gradient motivation); sibling skew ≪ global skew for the gradient algorithm")
	return rows, table, nil
}
