package experiments

import (
	"fmt"
	"math"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// E6Options configures the empirical gradient-profile experiment.
type E6Options struct {
	Protocols []engine.Protocol
	N         int
	Duration  rat.Rat
	// Seed drives the reproducible random delay adversary; FastEnd makes
	// node 0 run at 1+ρ/2 to create skew pressure.
	Seed    uint64
	FastEnd bool
	Rho     rat.Rat
	// Distances restricts reported rows (nil = all observed distances).
	Distances []int64
}

// DefaultE6 returns the benchmark configuration.
func DefaultE6(protos []engine.Protocol) E6Options {
	return E6Options{
		Protocols: protos,
		N:         17,
		Duration:  rat.FromInt(64),
		Seed:      7,
		FastEnd:   true,
		Rho:       rat.MustFrac(1, 2),
		Distances: []int64{1, 2, 4, 8, 16},
	}
}

// E6Profile is one protocol's empirical f̂(d).
type E6Profile struct {
	Protocol string
	Points   []core.ProfilePoint
	Global   rat.Rat
	Local    rat.Rat
	// FitC is the minimal c with f̂(d) ≤ c·(d + log₂ D) across all observed
	// distances — how the measured profile compares to the paper's
	// conjectured achievable bound O(d + log D).
	FitC float64
}

// fitC computes max over points of f̂(d)/(d + log₂ D).
func fitC(points []core.ProfilePoint, diameter float64) float64 {
	logD := math.Log2(math.Max(diameter, 2))
	c := 0.0
	for _, pt := range points {
		if v := pt.MaxSkew.Float64() / (pt.Dist.Float64() + logD); v > c {
			c = v
		}
	}
	return c
}

// E6Profiles measures f̂(d) = max skew among pairs at distance d on a line
// under drift pressure and randomized delays. The gradient property is
// visible as f̂ growing with d (small at d=1) versus the max-based
// algorithms' flat profile near the global skew.
func E6Profiles(opt E6Options) ([]E6Profile, *Table, error) {
	var profiles []E6Profile
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
		if opt.FastEnd {
			scheds[0] = clock.Constant(rat.FromInt(1).Add(opt.Rho.Div(rat.FromInt(2))))
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
			return nil, nil, fmt.Errorf("e6 %s: %w", proto.Name(), err)
		}
		if err := core.CheckValidity(exec); err != nil {
			return nil, nil, fmt.Errorf("e6 %s violates validity: %w", proto.Name(), err)
		}
		points := core.SkewProfile(exec)
		profiles = append(profiles, E6Profile{
			Protocol: proto.Name(),
			Points:   points,
			Global:   core.GlobalSkew(exec).Skew,
			Local:    core.LocalSkew(exec).Skew,
			FitC:     fitC(points, net.Diameter().Float64()),
		})
	}

	table := &Table{
		ID:     "E6",
		Title:  "empirical gradient profiles f̂(d) on a drifting line (Requirement 2's measured left-hand side)",
		Header: []string{"protocol"},
	}
	for _, d := range opt.Distances {
		table.Header = append(table.Header, fmt.Sprintf("f̂(%d)", d))
	}
	table.Header = append(table.Header, "global", "local/global", "fit c: f̂≤c(d+log₂D)")
	for _, p := range profiles {
		row := []string{p.Protocol}
		byDist := map[string]rat.Rat{}
		for _, pt := range p.Points {
			byDist[pt.Dist.Key()] = pt.MaxSkew
		}
		for _, d := range opt.Distances {
			if v, ok := byDist[rat.FromInt(d).Key()]; ok {
				row = append(row, fmtRat(v))
			} else {
				row = append(row, "-")
			}
		}
		ratio := 0.0
		if p.Global.Sign() > 0 {
			ratio = p.Local.Float64() / p.Global.Float64()
		}
		row = append(row, fmtRat(p.Global), fmt.Sprintf("%.2f", ratio), fmt.Sprintf("%.3f", p.FitC))
		table.Rows = append(table.Rows, row)
	}
	table.Notes = append(table.Notes,
		"expected shape: null grows unboundedly with time at all d; max-gossip/max-flood keep global small but local ≈ global (no gradient); gradient keeps f̂(1) well below f̂(16)")
	return profiles, table, nil
}
