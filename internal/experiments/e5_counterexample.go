package experiments

import (
	"fmt"

	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/rat"
)

// E5Options configures the §2 counterexample sweep.
type E5Options struct {
	Protocols []engine.Protocol
	Dcs       []int64
	Params    lowerbound.Params
}

// DefaultE5 returns the benchmark configuration.
func DefaultE5(protos []engine.Protocol) E5Options {
	return E5Options{
		Protocols: protos,
		Dcs:       []int64{4, 8, 16, 32, 64},
		Params:    lowerbound.DefaultParams(),
	}
}

// E5Row is one scenario outcome.
type E5Row struct {
	Protocol   string
	Dc         rat.Rat
	PreSwitch  rat.Rat
	Peak       rat.Rat
	PeakOverDc float64
	LinearInDc bool
}

// E5Counterexample reproduces the paper's §2 story: under the delay-switch
// schedule, max-based algorithms put Θ(D) skew between two nodes at distance
// 1; the gradient algorithm's rate cap prevents the spike.
func E5Counterexample(opt E5Options) ([]E5Row, *Table, error) {
	var rows []E5Row
	for _, proto := range opt.Protocols {
		for _, dcv := range opt.Dcs {
			dc := rat.FromInt(dcv)
			// Run long enough for the x−y gap to accumulate: the drift is
			// ρ/2 per unit, so D/(ρ/2) units builds ≈ D of skew.
			switchAt := dc.Div(opt.Params.Rho.Div(rat.FromInt(2))).Add(dc)
			res, err := lowerbound.Counterexample(lowerbound.CounterexampleInput{
				Protocol: proto,
				Dc:       dc,
				SwitchAt: switchAt,
				Duration: switchAt.Add(rat.FromInt(8)),
				Params:   opt.Params,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e5 %s Dc=%d: %w", proto.Name(), dcv, err)
			}
			rows = append(rows, E5Row{
				Protocol:   proto.Name(),
				Dc:         dc,
				PreSwitch:  res.PreSwitchYZ.Val,
				Peak:       res.PeakYZ.Val,
				PeakOverDc: res.Ratio,
				LinearInDc: res.Ratio > 0.2,
			})
		}
	}
	table := &Table{
		ID:     "E5",
		Title:  "§2 counterexample: y−z skew at distance 1 after the x→y delay collapse (paper: D+1 for max-based algorithms)",
		Header: []string{"protocol", "Dc", "pre-switch |y−z|", "peak y−z", "peak/Dc", "Θ(D) spike"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol, fmtRat(r.Dc), fmtRat(r.PreSwitch), fmtRat(r.Peak),
			fmtFloat("%.3f", r.PeakOverDc), fmtBool(r.LinearInDc),
		})
	}
	table.Notes = append(table.Notes,
		"paper: max-based algorithms allow D-scale skew at distance 1 (gradient property violated); expected shape: peak/Dc ≈ drift constant for max-*, near zero for gradient")
	return rows, table, nil
}
