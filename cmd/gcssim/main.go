// Command gcssim runs one clock-synchronization simulation and prints its
// validity, skew metrics and (optionally) the empirical gradient profile.
//
// Usage:
//
//	gcssim -proto gradient -topology line -n 17 -dur 50 -profile
//	gcssim -proto max-gossip -topology grid -n 16 -adversary random -seed 3
//	gcssim -proto gradient -topology line -n 257 -dur 200
//	gcssim -proto gradient -topology ring -n 9 -dur 30 -chart
//
// The run streams through the online trackers (core.SkewTracker and
// core.ValidityTracker), which hold O(nodes²) state whatever the event
// count, so large networks and long durations fit in memory. Only -chart
// also records the execution: plot.TimeSeries reads the recorded clocks, and
// the chart follows the same report a run without -chart prints.
//
// -adaptive replaces the fixed -adversary with the online §2 scheduler
// (internal/lowerbound AdaptiveScheduler): node 0 is the fast source, the
// node farthest from it the release front, and the adversary watches the
// run it is delaying — holding views maximally stale until the observed
// drift reaches -threshold (default: ρ·dur/3), then collapsing the
// source→front delay:
//
//	gcssim -adaptive -proto max-gossip -topology line -n 9 -dur 50
//
// Worst-case search is `gcssearch run` on a campaign spec (internal/dist).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/plot"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func main() {
	var (
		protoName = flag.String("proto", "gradient", strings.Join(algorithms.Names(), " | "))
		topology  = flag.String("topology", "line", strings.Join(network.Names(), " | ")+" (unit edges; rgg placed by -seed)")
		n         = flag.Int("n", 9, "node count (grid uses the nearest square)")
		durStr    = flag.String("dur", "50", "duration (rational, e.g. 50 or 101/2)")
		rhoStr    = flag.String("rho", "1/2", "drift bound ρ")
		advName   = flag.String("adversary", "midpoint", "midpoint | zero | max | random")
		seed      = flag.Uint64("seed", 1, "seed for the random adversary and the rgg topology")
		fastEnd   = flag.Bool("fastend", true, "run node 0 at 1+ρ/2 for drift pressure")
		profile   = flag.Bool("profile", false, "print the empirical gradient profile f̂(d)")
		chart     = flag.Bool("chart", false, "plot worst-pair and worst-adjacent skew over time (records the execution)")
		adaptive  = flag.Bool("adaptive", false, "schedule with the online §2 adversary (adaptive scheduler) instead of -adversary")
		threshStr = flag.String("threshold", "0", "adaptive release threshold: observed source-front hardware gap (0 = ρ·dur/3; needs -adaptive)")
	)
	flag.Parse()
	var err error
	if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	} else {
		err = run(*protoName, *topology, *n, *durStr, *rhoStr, *advName, *seed, *fastEnd,
			*profile, *chart, *adaptive, *threshStr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcssim:", err)
		os.Exit(1)
	}
}

// run simulates one execution and prints its report. Validity, skew and the
// profile come from the online trackers; with chart, a Recorder also keeps
// the execution for plot.TimeSeries.
func run(protoName, topology string, n int, durStr, rhoStr, advName string, seed uint64, fastEnd, profile, chart, adaptive bool, threshStr string) error {
	var conflict error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case adaptive && f.Name == "adversary":
			conflict = fmt.Errorf("-adaptive schedules with the online adversary; drop -adversary")
		case !adaptive && f.Name == "threshold":
			conflict = fmt.Errorf("-threshold sets the adaptive scheduler's release; add -adaptive or drop -threshold")
		}
	})
	if conflict != nil {
		return conflict
	}
	dur, err := rat.Parse(durStr)
	if err != nil {
		return fmt.Errorf("duration: %w", err)
	}
	if dur.Sign() <= 0 {
		return fmt.Errorf("non-positive duration %s", dur)
	}
	rho, err := rat.Parse(rhoStr)
	if err != nil {
		return fmt.Errorf("rho: %w", err)
	}

	net, err := network.ByName(topology, n, rat.FromInt(1), seed)
	if err != nil {
		return err
	}
	n = net.N()

	proto, err := algorithms.ByName(protoName)
	if err != nil {
		return err
	}
	adv, err := engine.AdversaryByName(advName, seed)
	if err != nil {
		return err
	}
	var sched *lowerbound.AdaptiveScheduler
	if adaptive {
		sched, err = buildAdaptive(net, dur, rho, threshStr)
		if err != nil {
			return err
		}
		adv, advName = sched, sched.String()
	}

	scheds := make([]*clock.Schedule, n)
	for i := range scheds {
		scheds[i] = clock.Constant(rat.FromInt(1))
	}
	if fastEnd {
		scheds[0] = clock.Constant(rat.FromInt(1).Add(rho.Div(rat.FromInt(2))))
	}

	skew, err := core.NewSkewTracker(net, scheds)
	if err != nil {
		return err
	}
	valid := core.NewValidityTracker(scheds)
	var messages uint64
	observers := []engine.Observer{skew, valid, engine.Funcs{
		Send: func(trace.MsgRecord) { messages++ },
	}}
	var rec *trace.Recorder
	if chart {
		rec = trace.NewRecorder(n)
		observers = append(observers, rec)
	}
	eng, err := engine.New(net,
		engine.WithProtocol(proto),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(rho),
		engine.WithObservers(observers...),
	)
	if err != nil {
		return err
	}
	if err := eng.RunUntil(dur); err != nil {
		return err
	}
	if err := skew.Err(); err != nil {
		return err
	}

	fmt.Printf("%s on %s (%d nodes, diameter %s), duration %s, ρ=%s, adversary %s\n",
		protoName, net.Name(), net.N(), net.Diameter(), dur, rho, advName)
	fmt.Printf("  events: %d   messages: %d\n", eng.Steps(), messages)
	if err := valid.Err(); err != nil {
		fmt.Printf("  VALIDITY VIOLATED: %v\n", err)
	} else {
		fmt.Printf("  validity (Requirement 1): ok\n")
	}
	g := skew.Global()
	l := skew.Local()
	fmt.Printf("  global skew: %s (pair %d,%d at t=%s)\n", g.Skew, g.I, g.J, g.At)
	fmt.Printf("  local  skew: %s (pair %d,%d at t=%s)\n", l.Skew, l.I, l.J, l.At)
	if sched != nil {
		if at, ok := sched.Released(); ok {
			fmt.Printf("  adaptive release: source %d → front %d collapsed at t=%s\n", sched.Source(), sched.Front(), at)
		} else {
			fmt.Printf("  adaptive release: threshold never reached (views stayed maximally stale)\n")
		}
	}
	if profile {
		printProfile(skew.Profile())
	}
	if chart {
		exec, err := eng.Execution(rec)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(plot.Chart(
			fmt.Sprintf("skew over time: worst pair (%d,%d) and worst adjacent pair (%d,%d)", g.I, g.J, l.I, l.J),
			12,
			plot.TimeSeries(exec, g.I, g.J, 64),
			plot.TimeSeries(exec, l.I, l.J, 64),
		))
	}
	return nil
}

// buildAdaptive constructs the online §2 scheduler for the run: node 0 as
// the fast source (pair it with -fastend, the default), the node farthest
// from it as the release front.
func buildAdaptive(net *network.Network, dur, rho rat.Rat, threshStr string) (*lowerbound.AdaptiveScheduler, error) {
	threshold, err := rat.Parse(threshStr)
	if err != nil {
		return nil, fmt.Errorf("threshold: %w", err)
	}
	if threshold.IsZero() {
		threshold = lowerbound.AutoThreshold(rho, dur)
	}
	front := 1 % net.N()
	for j := 1; j < net.N(); j++ {
		if net.Dist(0, j).Greater(net.Dist(0, front)) {
			front = j
		}
	}
	return lowerbound.NewAdaptiveScheduler(net, 0, front, threshold)
}

func printProfile(points []core.ProfilePoint) {
	fmt.Println("  empirical gradient profile f̂(d):")
	var labels []string
	var values []float64
	for _, pt := range points {
		fmt.Printf("    d=%-6s pairs=%-4d max skew=%s\n", pt.Dist, pt.Pairs, pt.MaxSkew)
		labels = append(labels, "d="+pt.Dist.String())
		values = append(values, pt.MaxSkew.Float64())
	}
	fmt.Println()
	fmt.Print(plot.Bars("  f̂(d) profile", labels, values, 40))
}
