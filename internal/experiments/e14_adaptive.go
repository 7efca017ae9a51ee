package experiments

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// E14Cell is one topology instance of the adaptive-adversary experiment.
type E14Cell struct {
	Name     string
	Net      *network.Network
	Duration rat.Rat
	// Source and Front are the adaptive scheduler's roles: the fast node
	// whose view is held stale, and the node whose edge is released.
	Source, Front int
}

// E14Options configures the adaptive-vs-scripted hunter comparison: for
// every protocol × topology cell, run the generalized §2 online scheduler
// (an adaptive adversary that watches the execution and releases itself),
// run the scripted beam search on the same cell, and put both next to the
// certified Shift bound at the cell's diameter.
type E14Options struct {
	Protocols []engine.Protocol
	Cells     []E14Cell
	Params    lowerbound.Params

	// Scripted-search budget per cell.
	Rounds         int
	Beam           int
	DelayMutations int
	Workers        int
}

// DefaultE14 returns the smoke configuration: the two-node cell the Shift
// bound certifies, searched over the construction's own horizon τ·d — the
// cell on which the adaptive scheduler must attain the certified bound.
func DefaultE14(protos []engine.Protocol) (E14Options, error) {
	p := lowerbound.DefaultParams()
	d := rat.FromInt(2)
	two, err := network.TwoNode(d)
	if err != nil {
		return E14Options{}, err
	}
	return E14Options{
		Protocols: protos,
		Cells: []E14Cell{
			{Name: "two-node d=2", Net: two, Duration: p.Tau().Mul(d), Source: 0, Front: 1},
		},
		Params:         p,
		Rounds:         2,
		Beam:           2,
		DelayMutations: 6,
	}, nil
}

// LongE14Cells appends the -long sweeps: a larger two-node cell and a line,
// where the online strategy runs against topologies the §2 construction
// never named.
func LongE14Cells(opt E14Options) (E14Options, error) {
	tau := opt.Params.Tau()
	d := rat.FromInt(8)
	two, err := network.TwoNode(d)
	if err != nil {
		return opt, err
	}
	opt.Cells = append(opt.Cells, E14Cell{
		Name: "two-node d=8", Net: two, Duration: tau.Mul(d), Source: 0, Front: 1,
	})
	line, err := network.Line(5)
	if err != nil {
		return opt, err
	}
	opt.Cells = append(opt.Cells, E14Cell{
		Name: "line n=5", Net: line, Duration: rat.FromInt(12), Source: 0, Front: 4,
	})
	return opt, nil
}

// E14Row is one protocol × topology measurement.
type E14Row struct {
	Protocol string
	Cell     string
	// Adaptive is the global skew the online scheduler forced; Released is
	// the real time its trigger fired (nil when it never did — the run then
	// simply stayed maximally stale).
	Adaptive rat.Rat
	Released *rat.Rat
	// Searched is the scripted beam search's worst case on the same cell,
	// and Baseline its Midpoint baseline.
	Searched rat.Rat
	Baseline rat.Rat
	// ShiftBound is the certified two-node lower bound at the cell's
	// diameter — the floor the adaptive scheduler must reach on two-node
	// cells.
	ShiftBound rat.Rat
	OK         bool
}

// adaptiveSkew runs the generalized §2 scheduler on one cell: source node on
// the fast 1+ρ/2 rate band, everyone else at rate 1, release threshold at
// the conventional ρ·dur/3. It returns the forced global skew and the
// release time, if the trigger fired.
func adaptiveSkew(cell E14Cell, proto engine.Protocol, p lowerbound.Params) (rat.Rat, *rat.Rat, error) {
	adv, err := lowerbound.NewAdaptiveScheduler(cell.Net, cell.Source, cell.Front,
		lowerbound.AutoThreshold(p.Rho, cell.Duration))
	if err != nil {
		return rat.Rat{}, nil, err
	}
	scheds := make([]*clock.Schedule, cell.Net.N())
	for i := range scheds {
		scheds[i] = clock.Constant(rat.FromInt(1))
	}
	scheds[cell.Source] = clock.Constant(p.RateBandHigh())
	skew, err := core.NewSkewTracker(cell.Net, scheds)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	eng, err := engine.New(cell.Net,
		engine.WithProtocol(proto),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(p.Rho),
		engine.WithObservers(skew),
	)
	if err != nil {
		return rat.Rat{}, nil, err
	}
	if err := eng.RunUntil(cell.Duration); err != nil {
		return rat.Rat{}, nil, err
	}
	if err := skew.Err(); err != nil {
		return rat.Rat{}, nil, err
	}
	var released *rat.Rat
	if at, ok := adv.Released(); ok {
		released = &at
	}
	return skew.Global().Skew, released, nil
}

// E14AdaptiveAdversary runs the comparison. "OK" asserts the online
// scheduler reaches the certified Shift bound on the two-node cells (the
// same floor the scripted search recovers) and never falls below the
// scripted search's own Midpoint baseline elsewhere.
func E14AdaptiveAdversary(opt E14Options) ([]E14Row, *Table, error) {
	var rows []E14Row
	for _, proto := range opt.Protocols {
		for _, cell := range opt.Cells {
			shift, err := lowerbound.Shift(proto, cell.Net.Diameter(), opt.Params)
			if err != nil {
				return nil, nil, fmt.Errorf("e14 %s %s shift reference: %w", proto.Name(), cell.Name, err)
			}
			adaptive, released, err := adaptiveSkew(cell, proto, opt.Params)
			if err != nil {
				return nil, nil, fmt.Errorf("e14 %s %s adaptive run: %w", proto.Name(), cell.Name, err)
			}
			res, err := search.Search(search.Options{
				Net:            cell.Net,
				Protocol:       proto,
				Duration:       cell.Duration,
				Rho:            opt.Params.Rho,
				Objective:      search.ObjectiveGlobalSkew,
				Rounds:         opt.Rounds,
				Beam:           opt.Beam,
				DelayMutations: opt.DelayMutations,
				Workers:        opt.Workers,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("e14 %s %s search: %w", proto.Name(), cell.Name, err)
			}
			ok := adaptive.GreaterEq(res.Baseline)
			if cell.Net.N() == 2 {
				ok = ok && adaptive.GreaterEq(shift.Implied)
			}
			rows = append(rows, E14Row{
				Protocol:   proto.Name(),
				Cell:       cell.Name,
				Adaptive:   adaptive,
				Released:   released,
				Searched:   res.Best,
				Baseline:   res.Baseline,
				ShiftBound: shift.Implied,
				OK:         ok,
			})
		}
	}
	table := &Table{
		ID:     "E14",
		Title:  "adaptive online adversary (§2 scheduler, general form) vs scripted beam search and certified Shift bound",
		Header: []string{"protocol", "topology", "adaptive", "released@", "searched", "midpoint", "shift f(D)≥", "ok"},
	}
	allOK := true
	for _, r := range rows {
		released := "never"
		if r.Released != nil {
			released = fmtRat(*r.Released)
		}
		table.Rows = append(table.Rows, []string{
			r.Protocol, r.Cell, fmtRat(r.Adaptive), released,
			fmtRat(r.Searched), fmtRat(r.Baseline), fmtRat(r.ShiftBound), fmtBool(r.OK),
		})
		allOK = allOK && r.OK
	}
	if allOK {
		table.Notes = append(table.Notes,
			"the online scheduler — which is never told the schedules' divergence times, only",
			"watches the run it delays — dominates the Midpoint baseline on every cell and",
			"recovers the certified Shift separation on the two-node cells, like the scripted",
			"beam search before it")
	} else {
		table.Notes = append(table.Notes, "some cell fell below its floor — investigate")
	}
	return rows, table, nil
}
