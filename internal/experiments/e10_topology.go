package experiments

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// E10Options configures the topology sweep.
type E10Options struct {
	Protocols []engine.Protocol
	Duration  rat.Rat
	Rho       rat.Rat
	Seed      uint64
}

// DefaultE10 returns the benchmark configuration.
func DefaultE10(protos []engine.Protocol) E10Options {
	return E10Options{
		Protocols: protos,
		Duration:  rat.FromInt(48),
		Rho:       rat.MustFrac(1, 2),
		Seed:      17,
	}
}

// E10Row is one (protocol, topology) outcome.
type E10Row struct {
	Protocol string
	Topology string
	Diameter rat.Rat
	Local    rat.Rat
	Global   rat.Rat
	Messages int
}

// e10Topologies builds the sweep set. The paper's model is
// topology-agnostic (distances are delay uncertainties); the sweep checks
// that the local-vs-global separation persists beyond the line used in the
// constructions.
func e10Topologies() ([]*network.Network, error) {
	line, err := network.Line(17)
	if err != nil {
		return nil, err
	}
	ring, err := network.Ring(16)
	if err != nil {
		return nil, err
	}
	grid, err := network.Grid2D(4, 4)
	if err != nil {
		return nil, err
	}
	star, err := network.Star(12, rat.FromInt(1))
	if err != nil {
		return nil, err
	}
	return []*network.Network{line, ring, grid, star}, nil
}

// E10Topologies runs every protocol on line, ring, grid, and star networks
// under diverse drift and random delays, reporting local and global skew.
func E10Topologies(opt E10Options) ([]E10Row, *Table, error) {
	nets, err := e10Topologies()
	if err != nil {
		return nil, nil, err
	}
	var rows []E10Row
	for _, proto := range opt.Protocols {
		for _, net := range nets {
			n := net.N()
			scheds, err := clock.Diverse(n, rat.FromInt(1),
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
				return nil, nil, fmt.Errorf("e10 %s on %s: %w", proto.Name(), net.Name(), err)
			}
			if err := core.CheckValidity(exec); err != nil {
				return nil, nil, fmt.Errorf("e10 %s on %s: %w", proto.Name(), net.Name(), err)
			}
			rows = append(rows, E10Row{
				Protocol: proto.Name(),
				Topology: net.Name(),
				Diameter: net.Diameter(),
				Local:    core.LocalSkew(exec).Skew,
				Global:   core.GlobalSkew(exec).Skew,
				Messages: len(exec.Ledger),
			})
		}
	}
	table := &Table{
		ID:     "E10",
		Title:  "topology sweep: local vs global skew across line, ring, grid, star",
		Header: []string{"protocol", "topology", "diameter", "local skew", "global skew", "messages"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Protocol, r.Topology, fmtRat(r.Diameter), fmtRat(r.Local), fmtRat(r.Global),
			fmt.Sprintf("%d", r.Messages),
		})
	}
	table.Notes = append(table.Notes,
		"the model is topology-agnostic; denser topologies (grid, star) shrink both diameters and skews, matching the paper's D-dependence")
	return rows, table, nil
}
