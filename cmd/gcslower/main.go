// Command gcslower runs an individual lower-bound construction from Fan &
// Lynch (PODC 2004) against a chosen protocol and prints the certificate.
//
// Usage:
//
//	gcslower -construction shift    -proto max-gossip -d 8
//	gcslower -construction addskew  -proto gradient   -n 17
//	gcslower -construction increase -proto max-flood  -n 9
//	gcslower -construction theorem  -proto max-gossip -branch 4 -rounds 3
//	gcslower -construction counter  -proto max-gossip -d 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
)

func main() {
	var (
		construction = flag.String("construction", "theorem", "shift | addskew | increase | theorem | counter")
		protoName    = flag.String("proto", "max-gossip", strings.Join(algorithms.Names(), " | "))
		d            = flag.Int64("d", 8, "distance (shift) or Dc (counter)")
		n            = flag.Int("n", 17, "line size (addskew, increase)")
		branch       = flag.Int64("branch", 4, "main theorem branching factor")
		rounds       = flag.Int("rounds", 3, "main theorem rounds (network has branch^rounds+1 nodes)")
	)
	flag.Parse()
	var err error
	if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	} else {
		err = run(*construction, *protoName, *d, *n, *branch, *rounds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcslower:", err)
		os.Exit(1)
	}
}

func run(construction, protoName string, d int64, n int, branch int64, rounds int) error {
	proto, err := algorithms.ByName(protoName)
	if err != nil {
		return err
	}
	p := lowerbound.DefaultParams()
	switch construction {
	case "shift":
		res, err := lowerbound.Shift(proto, rat.FromInt(d), p)
		if err != nil {
			return err
		}
		fmt.Printf("Ω(d) shift certificate for %s at d=%d\n", protoName, d)
		fmt.Printf("  skew(α) = %s, skew(β) = %s (indistinguishable executions)\n", res.SkewAlpha, res.SkewBeta)
		fmt.Printf("  separation = %s  (guaranteed ≥ %s)\n", res.Separation, p.GainFraction().Mul(rat.FromInt(d)))
		fmt.Printf("  ⇒ worst-case f(%d) ≥ %s\n", d, res.Implied)
		return nil
	case "addskew":
		res, err := addSkewLine(proto, n, p)
		if err != nil {
			return err
		}
		fmt.Printf("Add Skew certificate for %s on a %d-node line, pair (0,%d)\n", protoName, n, n-1)
		fmt.Printf("  skew(α) = %s → skew(β) = %s, gain %s ≥ guaranteed %s\n",
			res.SkewAlpha, res.SkewBeta, res.Gain, res.GuaranteedGain)
		fmt.Printf("  claims 6.2 (indistinguishability), 6.3 (rates), 6.4 (delays): verified\n\n")
		fmt.Print(lowerbound.RenderFigure1(res, rat.Rat{}, 60))
		return nil
	case "increase":
		net, err := network.Line(n)
		if err != nil {
			return err
		}
		scheds := make([]*clock.Schedule, n)
		for i := range scheds {
			scheds[i] = clock.Constant(rat.FromInt(1))
		}
		cfg := engine.Config{
			Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
			Protocol: proto, Duration: rat.FromInt(24), Rho: p.Rho,
		}
		alpha, err := engine.Run(cfg)
		if err != nil {
			return err
		}
		res, err := lowerbound.BoundedIncrease(lowerbound.BoundedIncreaseInput{
			Cfg: cfg, Alpha: alpha, I: n / 2, Params: p,
		})
		if err != nil {
			return err
		}
		fmt.Printf("Bounded Increase certificate for %s, node %d of a %d-node line\n", protoName, n/2, n)
		fmt.Printf("  max unit-window increase: %s at t=%s (lemma: ≤ 16·f(1))\n", res.MaxIncrease, res.IncreaseAt)
		fmt.Printf("  speed-up window [T0−τ, T0] with T0=%s; densest 1/8-window gain %s\n", res.T0, res.WindowGain)
		fmt.Printf("  β forces skew %s against distance-1 node %d\n", res.BetaSkew, res.BetaPeer)
		fmt.Printf("  ⇒ worst-case f(1) ≥ %s\n", res.ImpliedF1)
		return nil
	case "theorem":
		res, err := lowerbound.MainTheorem(lowerbound.MainTheoremInput{
			Protocol: proto, Params: p, Branch: branch, Rounds: rounds,
		})
		if err != nil {
			return err
		}
		fmt.Print(lowerbound.RenderRounds(res))
		return nil
	case "counter":
		dc := rat.FromInt(d)
		switchAt := dc.Div(p.Rho.Div(rat.FromInt(2))).Add(dc)
		res, err := lowerbound.Counterexample(lowerbound.CounterexampleInput{
			Protocol: proto, Dc: dc, SwitchAt: switchAt,
			Duration: switchAt.Add(rat.FromInt(8)), Params: p,
		})
		if err != nil {
			return err
		}
		fmt.Printf("§2 counterexample for %s with d(x,y)=%d, d(y,z)=1\n", protoName, d)
		fmt.Printf("  pre-switch |L_y − L_z| ≤ %s\n", res.PreSwitchYZ.Val)
		fmt.Printf("  post-switch peak L_y − L_z = %s at t=%s (peak/D = %.3f)\n",
			res.PeakYZ.Val, res.PeakYZ.At, res.Ratio)
		return nil
	default:
		return fmt.Errorf("unknown construction %q", construction)
	}
}

func addSkewLine(proto engine.Protocol, n int, p lowerbound.Params) (*lowerbound.AddSkewResult, error) {
	net, err := network.Line(n)
	if err != nil {
		return nil, err
	}
	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(rat.FromInt(1))
	}
	cfg := engine.Config{
		Net: net, Schedules: scheds, Adversary: engine.Midpoint(),
		Protocol: proto, Duration: p.Tau().Mul(rat.FromInt(int64(n - 1))), Rho: p.Rho,
	}
	alpha, err := engine.Run(cfg)
	if err != nil {
		return nil, err
	}
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = rat.FromInt(int64(k))
	}
	return lowerbound.AddSkew(lowerbound.AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
}
