package scenario

import (
	"fmt"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// Scenario is one registered cell of the matrix: a generated topology, a
// fault model sized to the run, a drift profile, and a protocol. All fields
// are deterministic in the registry: rebuilding the matrix in a fresh
// process yields byte-identical scenarios.
type Scenario struct {
	Name     string
	Family   string // topology family key, e.g. "torus-3x3"
	Fault    string // fault model key: none | crash | loss | partition | churn
	Drift    DriftProfile
	Model    FaultModel
	Net      *network.Network
	Protocol engine.Protocol
	Period   rat.Rat // the protocol's gossip period
	Rho      rat.Rat
	Duration rat.Rat
}

// family is a named deterministic topology instance.
type family struct {
	key string
	net *network.Network
}

// smokeFamilies are the small instances the CI smoke matrix runs; seeds are
// shared with the topology generator tests, so the shapes are pinned twice.
func smokeFamilies() ([]family, error) {
	return buildFamilies([]familySpec{
		{"torus-3x3", func() (*network.Network, error) { return network.Torus(3, 3) }},
		{"dreg-10-3", func() (*network.Network, error) { return network.DRegular(10, 3, 7) }},
		{"ba-12-m2", func() (*network.Network, error) { return network.BarabasiAlbert(12, 2, 5) }},
		{"bdr-12-deg3", func() (*network.Network, error) { return network.BoundedDegreeRandom(12, 3, 3) }},
	})
}

// fullFamilies are the larger instances of the full matrix.
func fullFamilies() ([]family, error) {
	return buildFamilies([]familySpec{
		{"torus-4x4", func() (*network.Network, error) { return network.Torus(4, 4) }},
		{"dreg-16-4", func() (*network.Network, error) { return network.DRegular(16, 4, 21) }},
		{"ba-20-m2", func() (*network.Network, error) { return network.BarabasiAlbert(20, 2, 9) }},
		{"bdr-16-deg4", func() (*network.Network, error) { return network.BoundedDegreeRandom(16, 4, 11) }},
	})
}

type familySpec struct {
	key   string
	build func() (*network.Network, error)
}

func buildFamilies(specs []familySpec) ([]family, error) {
	out := make([]family, 0, len(specs))
	for _, s := range specs {
		net, err := s.build()
		if err != nil {
			return nil, fmt.Errorf("scenario: building family %s: %w", s.key, err)
		}
		out = append(out, family{key: s.key, net: net})
	}
	return out, nil
}

// namedFault is a fault model sized to a concrete run (windows placed
// relative to the duration, cuts relative to n).
type namedFault struct {
	key   string
	model FaultModel
}

// faultsFor builds the standard fault set for an n-node run of the given
// duration. Node 0 is never crashed: it is the adaptive scheduler's source
// role (the matrix crashes only non-root nodes, matching the issue's
// crash/restart contract).
func faultsFor(n int, dur rat.Rat) []namedFault {
	quarter := dur.Div(rat.FromInt(4))
	third := dur.Div(rat.FromInt(3))
	half := dur.Div(rat.FromInt(2))
	two := rat.FromInt(2)
	side := make([]bool, n)
	for i := 0; i < n/2; i++ {
		side[i] = true
	}
	return []namedFault{
		{"none", FaultModel{}},
		{"crash", FaultModel{Crash: map[int][]Window{
			1:     {{From: quarter, To: quarter.Add(two)}},
			n / 2: {{From: half, To: half.Add(two)}},
		}}},
		{"loss", FaultModel{LossNum: 1, LossDen: 8, LossSeed: 0x10550001}},
		{"partition", FaultModel{Partitions: []Partition{
			{Window: Window{From: third, To: third.Add(two)}, Side: side},
		}}},
		{"churn", FaultModel{ChurnNum: 1, ChurnDen: 8, ChurnPeriod: two, ChurnSeed: 0xc4021}},
	}
}

// scenarioRho is the matrix drift bound — the repo's conventional ρ = 1/2.
func scenarioRho() rat.Rat { return rat.MustFrac(1, 2) }

// scenarioDuration scales the horizon with the family diameter, 4·(D+2):
// long enough that the propagation envelope (not the 2ρ·dur drift cap)
// gates the fault-free rows, short enough that the full matrix stays a
// seconds-scale run.
func scenarioDuration(net *network.Network) rat.Rat {
	return rat.FromInt(4).Mul(net.Diameter().Add(rat.FromInt(2)))
}

func buildScenario(fam family, fault namedFault, drift DriftProfile, proto engine.Protocol) Scenario {
	dur := scenarioDuration(fam.net)
	return Scenario{
		Name:     fmt.Sprintf("%s/%s/%s/%s", fam.key, fault.key, drift, proto.Name()),
		Family:   fam.key,
		Fault:    fault.key,
		Drift:    drift,
		Model:    fault.model,
		Net:      fam.net,
		Protocol: proto,
		Period:   rat.FromInt(1),
		Rho:      scenarioRho(),
		Duration: dur,
	}
}

// Smoke returns the CI subset: every family, every fault kind, every drift
// profile, and both max-based protocols appear at least once, but the total
// stays small enough to regenerate on every pull request.
func Smoke() ([]Scenario, error) {
	fams, err := smokeFamilies()
	if err != nil {
		return nil, err
	}
	gossip := algorithms.MaxGossip(rat.FromInt(1))
	flood := algorithms.MaxFlood(rat.FromInt(1))
	pick := func(fam family, faultKey string, drift DriftProfile, proto engine.Protocol) (Scenario, error) {
		for _, f := range faultsFor(fam.net.N(), scenarioDuration(fam.net)) {
			if f.key == faultKey {
				return buildScenario(fam, f, drift, proto), nil
			}
		}
		return Scenario{}, fmt.Errorf("scenario: unknown fault key %q", faultKey)
	}
	specs := []struct {
		fam   int
		fault string
		drift DriftProfile
		proto engine.Protocol
	}{
		{0, "none", DriftHeterogeneous, gossip},
		{0, "crash", DriftHomogeneous, flood},
		{1, "loss", DriftHomogeneous, gossip},
		{2, "partition", DriftBursty, gossip},
		{3, "churn", DriftHeterogeneous, gossip},
	}
	out := make([]Scenario, 0, len(specs))
	for _, s := range specs {
		sc, err := pick(fams[s.fam], s.fault, s.drift, s.proto)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// Matrix returns the full registry: every family × every fault model under
// MaxGossip with the drift profile rotated per cell, plus a MaxFlood row on
// each family's fault-free cell.
func Matrix() ([]Scenario, error) {
	fams, err := fullFamilies()
	if err != nil {
		return nil, err
	}
	gossip := algorithms.MaxGossip(rat.FromInt(1))
	flood := algorithms.MaxFlood(rat.FromInt(1))
	var out []Scenario
	for fi, fam := range fams {
		faults := faultsFor(fam.net.N(), scenarioDuration(fam.net))
		for fj, fault := range faults {
			drift := DriftProfile((fi + fj) % 3)
			out = append(out, buildScenario(fam, fault, drift, gossip))
			if fault.key == "none" {
				out = append(out, buildScenario(fam, fault, drift, flood))
			}
		}
	}
	return out, nil
}
