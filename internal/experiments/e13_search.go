package experiments

import (
	"fmt"

	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// E13SeedKind selects which certified construction seeds a cell's search
// beam (ROADMAP "smarter search mutations": start the hunter at, not below,
// the proven bound).
type E13SeedKind int

// Seed kinds.
const (
	// E13SeedNone searches from the unmutated base only.
	E13SeedNone E13SeedKind = iota
	// E13SeedShift seeds the Shift construction's β execution (two-node
	// cells: the candidate already realizes the certified Ω(d) separation).
	E13SeedShift
	// E13SeedTheorem seeds the MainTheorem final execution α_R (line cells
	// sized Branch^TheoremRounds + 1).
	E13SeedTheorem
)

// E13Cell is one topology instance of the worst-case search sweep.
type E13Cell struct {
	Name     string
	Net      *network.Network
	Duration rat.Rat
	// Seed selects the certified construction injected into the beam.
	Seed E13SeedKind
	// Branch and TheoremRounds configure the E13SeedTheorem construction.
	Branch        int64
	TheoremRounds int
	// MutateTail, when nonzero, restricts delay mutations to the tail of the
	// decision log (the construction-surgery shape; maximizes prefix reuse
	// on the -long scale cells).
	MutateTail rat.Rat
	// RateWindows enables windowed rate-schedule mutations for this cell.
	// The scale cells leave it off: windowed mutants change clocks from
	// inside the run and evaluate from scratch, which would dilute the
	// prefix-cache saving the scale cells exist to measure.
	RateWindows int
}

// E13Options configures the adversary-search experiment: for every protocol
// × topology cell, hunt a skew-maximizing execution and compare it with the
// Midpoint baseline and (at the cell's diameter) the certified Shift bound.
type E13Options struct {
	Protocols []engine.Protocol
	Cells     []E13Cell
	Params    lowerbound.Params

	// Search budget per cell.
	Rounds         int
	Beam           int
	DelayMutations int
	Workers        int
}

// DefaultE13 returns the benchmark configuration: the two-node network the
// Shift bound certifies (searched over the same horizon τ·d the
// construction uses, seeded by the construction itself) plus a short
// drifting line.
func DefaultE13(protos []engine.Protocol) (E13Options, error) {
	p := lowerbound.DefaultParams()
	d := rat.FromInt(2)
	two, err := network.TwoNode(d)
	if err != nil {
		return E13Options{}, err
	}
	line, err := network.Line(5)
	if err != nil {
		return E13Options{}, err
	}
	return E13Options{
		Protocols: protos,
		Cells: []E13Cell{
			{Name: "two-node d=2", Net: two, Duration: p.Tau().Mul(d), Seed: E13SeedShift},
			{Name: "line n=5", Net: line, Duration: rat.FromInt(8)},
		},
		Params:         p,
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
	}, nil
}

// LongE13Cells appends the scale sweeps of -long mode: two-node cells out to
// diameter 64 (tail-biased mutations over the certified seed, the workload
// where prefix-cached evaluation pays), a ring, and a MainTheorem-seeded
// line. It also enables windowed rate mutations and one extra round.
func LongE13Cells(opt E13Options) (E13Options, error) {
	tau := opt.Params.Tau()
	half := rat.MustFrac(1, 2)
	for _, d := range []int64{4, 16, 64} {
		dd := rat.FromInt(d)
		two, err := network.TwoNode(dd)
		if err != nil {
			return opt, err
		}
		opt.Cells = append(opt.Cells, E13Cell{
			Name: fmt.Sprintf("two-node d=%d", d), Net: two, Duration: tau.Mul(dd),
			Seed: E13SeedShift, MutateTail: half,
		})
	}
	ring, err := network.Ring(6)
	if err != nil {
		return opt, err
	}
	opt.Cells = append(opt.Cells, E13Cell{Name: "ring n=6", Net: ring, Duration: rat.FromInt(10), RateWindows: 2})
	// MainTheorem cell: Branch^Rounds + 1 = 5 nodes; the final execution α_R
	// of the one-round construction runs for τ·n₀ + τ·n₁ (the β window plus
	// its slack, then the next clean window), which the cell's duration must
	// match for the seed to realize the theorem's skew.
	theoremLine, err := network.Line(5)
	if err != nil {
		return opt, err
	}
	opt.Cells = append(opt.Cells, E13Cell{
		Name: "theorem line n=5", Net: theoremLine,
		Duration: tau.Mul(rat.FromInt(4)).Add(tau),
		Seed:     E13SeedTheorem, Branch: 4, TheoremRounds: 1,
		RateWindows: 2,
	})
	opt.Rounds++
	return opt, nil
}

// E13Row is one protocol × topology measurement.
type E13Row struct {
	Protocol string
	Cell     string
	Baseline rat.Rat // global skew under the Midpoint seed
	Searched rat.Rat // searched worst-case global skew
	// ShiftBound is the certified two-node lower bound at the cell's
	// diameter (max measured skew of the Shift construction's execution
	// pair) — the floor any sound worst-case hunter must reach on the
	// two-node cells, and a reference line elsewhere.
	ShiftBound rat.Rat
	Seeded     bool // a certified construction entered the beam
	Evaluated  int
	// StepsPerCand is the engine events dispatched per evaluated candidate
	// under prefix-cached evaluation; ResimPerCand is what from-scratch
	// re-simulation would have dispatched. SavedPct = 1 − Steps/Resim.
	StepsPerCand float64
	ResimPerCand float64
	SavedPct     float64
	OK           bool // Searched ≥ Baseline, and ≥ ShiftBound on two-node cells
}

// cellSeeds builds the cell's certified seed for one protocol. A
// construction that fails on this protocol (its side conditions are
// protocol-dependent) degrades to an unseeded search rather than failing
// the sweep.
func cellSeeds(opt E13Options, cell E13Cell, proto engine.Protocol, shift *lowerbound.ShiftResult) []search.Seed {
	var seed lowerbound.AdversarySeed
	var err error
	switch cell.Seed {
	case E13SeedShift:
		seed, err = shift.Seed()
	case E13SeedTheorem:
		var mt *lowerbound.MainTheoremResult
		mt, err = lowerbound.MainTheorem(lowerbound.MainTheoremInput{
			Protocol: proto, Params: opt.Params,
			Branch: cell.Branch, Rounds: cell.TheoremRounds,
		})
		if err == nil {
			seed, err = mt.Seed()
		}
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	return []search.Seed{search.Seed(seed)}
}

// E13SearchWorstCase runs the parallel adversary search across the protocol
// portfolio: the repo's first workload where the simulator is driven by an
// optimizer instead of a fixed scenario. "OK" asserts the searched adversary
// dominates the Midpoint baseline everywhere and recovers at least the
// certified Shift separation on the two-node cells.
func E13SearchWorstCase(opt E13Options) ([]E13Row, *Table, error) {
	var rows []E13Row
	for _, proto := range opt.Protocols {
		for _, cell := range opt.Cells {
			shift, err := lowerbound.Shift(proto, cell.Net.Diameter(), opt.Params)
			if err != nil {
				return nil, nil, fmt.Errorf("e13 %s %s shift reference: %w", proto.Name(), cell.Name, err)
			}
			seeds := cellSeeds(opt, cell, proto, shift)
			res, err := search.Search(search.Options{
				Net:            cell.Net,
				Protocol:       proto,
				Duration:       cell.Duration,
				Rho:            opt.Params.Rho,
				Objective:      search.ObjectiveGlobalSkew,
				Seeds:          seeds,
				Rounds:         opt.Rounds,
				Beam:           opt.Beam,
				DelayMutations: opt.DelayMutations,
				MutateTail:     cell.MutateTail,
				RateWindows:    cell.RateWindows,
				Workers:        opt.Workers,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e13 %s %s: %w", proto.Name(), cell.Name, err)
			}
			ok := res.Best.GreaterEq(res.Baseline)
			if cell.Net.N() == 2 {
				ok = ok && res.Best.GreaterEq(shift.Implied)
			}
			rows = append(rows, E13Row{
				Protocol:     proto.Name(),
				Cell:         cell.Name,
				Baseline:     res.Baseline,
				Searched:     res.Best,
				ShiftBound:   shift.Implied,
				Seeded:       len(seeds) > 0,
				Evaluated:    res.Evaluated,
				StepsPerCand: res.StepsPerCandidate(),
				ResimPerCand: res.ResimPerCandidate(),
				SavedPct:     100 * res.SavedFraction(),
				OK:           ok,
			})
		}
	}
	table := &Table{
		ID:     "E13",
		Title:  "worst-case adversary search: searched skew vs Midpoint baseline and certified Shift bound",
		Header: []string{"protocol", "topology", "midpoint", "searched", "shift f(D)≥", "seeded", "evals", "steps/cand", "resim/cand", "saved", "ok"},
	}
	allOK := true
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol, r.Cell, fmtRat(r.Baseline), fmtRat(r.Searched),
			fmtRat(r.ShiftBound), fmtBool(r.Seeded), fmt.Sprintf("%d", r.Evaluated),
			fmtFloat("%.1f", r.StepsPerCand), fmtFloat("%.1f", r.ResimPerCand),
			fmtFloat("%.0f%%", r.SavedPct), fmtBool(r.OK),
		})
		allOK = allOK && r.OK
	}
	if allOK {
		table.Notes = append(table.Notes,
			"searched adversaries dominate the Midpoint baseline on every cell and recover",
			"the certified Shift separation on the two-node cells — the automated hunter is",
			"at least as strong as the paper's hand construction there; steps/cand vs",
			"resim/cand is the prefix-cache saving per evaluated candidate")
	} else {
		table.Notes = append(table.Notes, "some cell fell below its floor — investigate")
	}
	return rows, table, nil
}
