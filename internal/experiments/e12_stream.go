package experiments

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// E12Options configures the streaming scale experiment: skew metrics on
// lines far larger than the recorded path can hold, measured online with no
// trace retention.
type E12Options struct {
	Protocols []engine.Protocol
	Sizes     []int // line lengths
	Duration  rat.Rat
	Seed      uint64
	Rho       rat.Rat
}

// DefaultE12 returns the benchmark configuration. Long mode appends larger
// lines in the caller.
func DefaultE12(protos []engine.Protocol) E12Options {
	return E12Options{
		Protocols: protos,
		Sizes:     []int{33, 65, 129},
		Duration:  rat.FromInt(32),
		Seed:      7,
		Rho:       rat.MustFrac(1, 2),
	}
}

// E12Row is one streamed measurement.
type E12Row struct {
	Protocol string
	N        int
	Events   uint64
	Messages uint64
	Global   rat.Rat
	Local    rat.Rat
	Valid    bool
}

// E12StreamScale runs each protocol on drifting lines of growing size using
// the streaming engine with online trackers: memory stays O(nodes²)
// regardless of event count, so sizes and durations that would exhaust the
// recorded path run flat, and the global/local skew trajectories remain
// measurable at diameters the post-hoc checkers never reach.
func E12StreamScale(opt E12Options) ([]E12Row, *Table, error) {
	var rows []E12Row
	for _, proto := range opt.Protocols {
		for _, n := range opt.Sizes {
			net, err := network.Line(n)
			if err != nil {
				return nil, nil, err
			}
			scheds, err := clock.Diverse(n, rat.FromInt(1),
				rat.FromInt(1).Add(opt.Rho.Div(rat.FromInt(2))), 4, opt.Seed)
			if err != nil {
				return nil, nil, err
			}
			skew, err := core.NewSkewTracker(net, scheds)
			if err != nil {
				return nil, nil, err
			}
			valid := core.NewValidityTracker(scheds)
			var messages uint64
			eng, err := engine.New(net,
				engine.WithProtocol(proto),
				engine.WithAdversary(engine.HashAdversary{Seed: opt.Seed, Denom: 8}),
				engine.WithSchedules(scheds),
				engine.WithRho(opt.Rho),
			)
			if err != nil {
				return nil, nil, err
			}
			eng.Observe(skew, valid, engine.Funcs{
				Send: func(trace.MsgRecord) { messages++ },
			})
			if err := eng.RunUntil(opt.Duration); err != nil {
				return nil, nil, fmt.Errorf("E12 %s n=%d: %w", proto.Name(), n, err)
			}
			if err := skew.Err(); err != nil {
				return nil, nil, fmt.Errorf("E12 %s n=%d tracker: %w", proto.Name(), n, err)
			}
			rows = append(rows, E12Row{
				Protocol: proto.Name(),
				N:        n,
				Events:   eng.Steps(),
				Messages: messages,
				Global:   skew.Global().Skew,
				Local:    skew.Local().Skew,
				Valid:    valid.Err() == nil,
			})
		}
	}
	table := &Table{
		ID:     "E12",
		Title:  "streaming scale: online skew on large lines (no trace retention)",
		Header: []string{"protocol", "n", "events", "messages", "global skew", "local skew", "valid"},
		Notes: []string{
			"metrics computed online by engine observers in O(n²) state;",
			"the recorded path would buffer every event of every run above",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol,
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Messages),
			fmtRat(r.Global),
			fmtRat(r.Local),
			fmtBool(r.Valid),
		})
	}
	return rows, table, nil
}
