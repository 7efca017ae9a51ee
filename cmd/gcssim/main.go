// Command gcssim runs one clock-synchronization simulation and prints skew
// metrics and (optionally) the empirical gradient profile.
//
// Usage:
//
//	gcssim -proto gradient -topology line -n 17 -dur 50 -profile
//	gcssim -proto max-gossip -topology grid -n 16 -adversary random -seed 3
//	gcssim -stream -proto gradient -topology line -n 257 -dur 200
//	gcssim -search -proto gradient -topology line -n 5 -dur 8 -objective global
//
// The default mode records the full execution and runs the post-hoc
// checkers. -stream drives the incremental engine with online trackers
// instead: no trace is retained, so networks and durations far beyond what
// the recorded path can hold in memory report the same skew metrics.
// (-chart needs the recorded clocks and is unavailable with -stream.)
//
// -search hunts a worst-case execution instead of running a single fixed
// scenario: a deterministic parallel beam search over per-message delay and
// per-node rate choices, seeded by (and falling back to) the -adversary
// selection, maximizing -objective. It reports the searched worst-case skew
// next to the seed's baseline; base schedules are rate-1 (the search flips
// rates itself, so -fastend does not apply).
//
// -adaptive replaces the fixed -adversary with the online §2 scheduler
// (internal/lowerbound AdaptiveScheduler): node 0 is the fast source, the
// node farthest from it the release front, and the adversary watches the
// run it is delaying — holding views maximally stale until the observed
// drift reaches -threshold (default: ρ·dur/3), then collapsing the
// source→front delay. Works in both recorded and -stream mode:
//
//	gcssim -adaptive -proto max-gossip -topology line -n 9 -dur 50
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
	"gcs/internal/search"
	"gcs/internal/trace"
)

func main() {
	var (
		protoName = flag.String("proto", "gradient", strings.Join(algorithms.Names(), " | "))
		topology  = flag.String("topology", "line", "line | ring | grid | star | complete | rgg")
		n         = flag.Int("n", 9, "node count (grid uses the nearest square)")
		durStr    = flag.String("dur", "50", "duration (rational, e.g. 50 or 101/2)")
		rhoStr    = flag.String("rho", "1/2", "drift bound ρ")
		advName   = flag.String("adversary", "midpoint", "midpoint | zero | max | random")
		seed      = flag.Uint64("seed", 1, "seed for the random adversary")
		fastEnd   = flag.Bool("fastend", true, "run node 0 at 1+ρ/2 for drift pressure")
		profile   = flag.Bool("profile", false, "print the empirical gradient profile f̂(d)")
		chart     = flag.Bool("chart", false, "plot worst-pair and worst-adjacent skew over time (recorded mode only)")
		stream    = flag.Bool("stream", false, "stream the run through online trackers instead of recording a trace")
		doSearch  = flag.Bool("search", false, "hunt a worst-case execution (parallel adversary search) instead of one run")
		objective = flag.String("objective", "global", "search objective: global | local | margin (with -search)")
		rounds    = flag.Int("rounds", 0, "search mutation rounds (0 = default)")
		beam      = flag.Int("beam", 0, "search beam width (0 = default)")
		workers   = flag.Int("workers", 0, "search worker pool size (0 = GOMAXPROCS)")
		windows   = flag.Int("windows", 0, "windowed rate-mutation count (0 = disabled; with -search)")
		tailStr   = flag.String("tail", "0", "restrict delay mutations to the final fraction of the decision log, e.g. 1/2 (0 = whole log; with -search)")
		adaptive  = flag.Bool("adaptive", false, "schedule with the online §2 adversary (adaptive scheduler) instead of -adversary")
		threshStr = flag.String("threshold", "0", "adaptive release threshold: observed source-front hardware gap (0 = ρ·dur/3; with -adaptive)")
	)
	flag.Parse()
	var err error
	if *doSearch {
		err = searchFlagConflicts(*stream, *profile, *adaptive)
		if err == nil {
			err = runSearch(*protoName, *topology, *n, *durStr, *rhoStr, *advName, *seed,
				*objective, *rounds, *beam, *workers, *windows, *tailStr, *chart)
		}
	} else {
		err = run(*protoName, *topology, *n, *durStr, *rhoStr, *advName, *seed, *fastEnd,
			*profile, *chart, *stream, *adaptive, *threshStr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcssim:", err)
		os.Exit(1)
	}
}

func buildNetwork(topology string, n int, seed uint64) (*network.Network, error) {
	switch topology {
	case "line":
		return network.Line(n)
	case "ring":
		return network.Ring(n)
	case "grid":
		return network.SquareGrid(n)
	case "star":
		return network.Star(n, rat.FromInt(1))
	case "complete":
		return network.Complete(n, rat.FromInt(1))
	case "rgg":
		return network.RandomGeometric(n, 10, 4.5, int64(seed))
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}
}

func run(protoName, topology string, n int, durStr, rhoStr, advName string, seed uint64, fastEnd, profile, chart, stream, adaptive bool, threshStr string) error {
	if stream && chart {
		return fmt.Errorf("-chart needs the recorded clocks; drop -chart or run without -stream")
	}
	if adaptive {
		var conflict error
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "adversary" {
				conflict = fmt.Errorf("-adaptive schedules with the online adversary; drop -adversary")
			}
		})
		if conflict != nil {
			return conflict
		}
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

	net, err := buildNetwork(topology, n, seed)
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

	if stream {
		err = runStream(net, scheds, adv, proto, dur, rho, protoName, advName, profile)
	} else {
		err = runRecorded(net, scheds, adv, proto, dur, rho, protoName, advName, profile, chart)
	}
	if err == nil && sched != nil {
		if at, ok := sched.Released(); ok {
			fmt.Printf("  adaptive release: source %d → front %d collapsed at t=%s\n", sched.Source(), sched.Front(), at)
		} else {
			fmt.Printf("  adaptive release: threshold never reached (views stayed maximally stale)\n")
		}
	}
	return err
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

func header(protoName string, net *network.Network, dur, rho rat.Rat, advName, mode string) string {
	return fmt.Sprintf("%s on %s (%d nodes, diameter %s), duration %s, ρ=%s, adversary %s [%s]\n",
		protoName, net.Name(), net.N(), net.Diameter(), dur, rho, advName, mode)
}

// searchFlagConflicts rejects flag combinations -search cannot honor, loudly
// — the same convention -chart/-stream enforce — instead of silently
// ignoring them. (-fastend is additionally rejected only when set
// explicitly: its default is true.)
func searchFlagConflicts(stream, profile, adaptive bool) error {
	if stream {
		return fmt.Errorf("-search runs its own engine fleet; drop -stream")
	}
	if profile {
		return fmt.Errorf("-profile needs a single run's trackers; drop -profile or run without -search")
	}
	if adaptive {
		return fmt.Errorf("-adaptive is a single online run, -search a scripted fleet; drop one of them")
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fastend" {
			err = fmt.Errorf("-search explores rate schedules itself (rate-1 base); drop -fastend")
		}
	})
	return err
}

// runSearch hunts a skew-maximizing execution: the -adversary selection
// seeds the search and serves as the tail for unscripted decisions.
func runSearch(protoName, topology string, n int, durStr, rhoStr, advName string, seed uint64,
	objectiveName string, rounds, beam, workers, windows int, tailStr string, chart bool) error {
	if chart {
		return fmt.Errorf("-chart needs a recorded run; drop -chart or run without -search")
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
	tail, err := rat.Parse(tailStr)
	if err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	obj, err := search.ParseObjective(objectiveName)
	if err != nil {
		return err
	}
	net, err := buildNetwork(topology, n, seed)
	if err != nil {
		return err
	}
	proto, err := algorithms.ByName(protoName)
	if err != nil {
		return err
	}
	base, err := engine.AdversaryByName(advName, seed)
	if err != nil {
		return err
	}
	opt := search.Options{
		Net:         net,
		Protocol:    proto,
		Duration:    dur,
		Rho:         rho,
		Base:        base,
		Objective:   obj,
		Rounds:      rounds,
		Beam:        beam,
		Workers:     workers,
		RateWindows: windows,
		MutateTail:  tail,
	}
	if obj == search.ObjectiveGradientMargin {
		// Compare against the linear envelope f(d) = 1 + d: a margin > 0
		// certifies the searched execution breaks it.
		opt.Gradient = core.LinearGradient(rat.FromInt(1), rat.FromInt(1))
	}
	res, err := search.Search(opt)
	if err != nil {
		return err
	}
	fmt.Print(header(protoName, net, dur, rho, advName, "searched worst case"))
	if obj == search.ObjectiveGradientMargin {
		fmt.Printf("  objective: margin over f(d) = 1 + d (positive = gradient violation)\n")
	} else {
		fmt.Printf("  objective: %s skew\n", res.Objective)
	}
	fmt.Printf("  baseline (seed adversary): %s\n", res.Baseline)
	fmt.Printf("  searched worst case:       %s", res.Best)
	if res.Best.Greater(res.Baseline) && res.Baseline.Sign() > 0 {
		fmt.Printf("   (%.2fx baseline)", res.Best.Float64()/res.Baseline.Float64())
	}
	fmt.Println()
	w := res.Witness
	fmt.Printf("  witness: pair (%d,%d) at t=%s, distance %s\n", w.I, w.J, w.At, w.Dist)
	fmt.Printf("  search: %d rounds, %d candidate executions evaluated\n", res.Rounds, res.Evaluated)
	fmt.Printf("  engine events: %d dispatched, %.1f/candidate (from-scratch resim: %.1f/candidate, %.0f%% saved by prefix caching)\n",
		res.EngineSteps, res.StepsPerCandidate(), res.ResimPerCandidate(), 100*res.SavedFraction())
	var flips []string
	for i, r := range res.Rates {
		if !r.IsZero() {
			flips = append(flips, fmt.Sprintf("node %d → %s", i, r))
		}
	}
	if len(flips) > 0 {
		fmt.Printf("  rate overrides: %s\n", strings.Join(flips, ", "))
	} else {
		fmt.Printf("  rate overrides: none\n")
	}
	fmt.Printf("  script: %d scripted delays (replayable via ScriptedAdversary)\n", len(res.Script))
	return nil
}

// runStream drives the incremental engine with online trackers: O(nodes²)
// memory regardless of event count.
func runStream(net *network.Network, scheds []*clock.Schedule, adv engine.Adversary, proto engine.Protocol,
	dur, rho rat.Rat, protoName, advName string, profile bool) error {
	skew, err := core.NewSkewTracker(net, scheds)
	if err != nil {
		return err
	}
	valid := core.NewValidityTracker(scheds)
	var messages uint64
	eng, err := engine.New(net,
		engine.WithProtocol(proto),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(rho),
		engine.WithObservers(skew, valid, engine.Funcs{
			Send: func(trace.MsgRecord) { messages++ },
		}),
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

	fmt.Print(header(protoName, net, dur, rho, advName, "streamed"))
	fmt.Printf("  events: %d   messages: %d   (no trace retained)\n", eng.Steps(), messages)
	if err := valid.Err(); err != nil {
		fmt.Printf("  VALIDITY VIOLATED: %v\n", err)
	} else {
		fmt.Printf("  validity (Requirement 1): ok\n")
	}
	g := skew.Global()
	l := skew.Local()
	fmt.Printf("  global skew: %s (pair %d,%d at t=%s)\n", g.Skew, g.I, g.J, g.At)
	fmt.Printf("  local  skew: %s (pair %d,%d at t=%s)\n", l.Skew, l.I, l.J, l.At)
	if profile {
		printProfile(skew.Profile())
	}
	return nil
}

// runRecorded is the original record-then-check path.
func runRecorded(net *network.Network, scheds []*clock.Schedule, adv engine.Adversary, proto engine.Protocol,
	dur, rho rat.Rat, protoName, advName string, profile, chart bool) error {
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: adv,
		Protocol:  proto,
		Duration:  dur,
		Rho:       rho,
	})
	if err != nil {
		return err
	}

	fmt.Print(header(protoName, net, dur, rho, advName, "recorded"))
	fmt.Printf("  events: %d   messages: %d\n", len(exec.Actions), len(exec.Ledger))
	if err := core.CheckValidity(exec); err != nil {
		fmt.Printf("  VALIDITY VIOLATED: %v\n", err)
	} else {
		fmt.Printf("  validity (Requirement 1): ok\n")
	}
	g := core.GlobalSkew(exec)
	l := core.LocalSkew(exec)
	fmt.Printf("  global skew: %s (pair %d,%d at t=%s)\n", g.Skew, g.I, g.J, g.At)
	fmt.Printf("  local  skew: %s (pair %d,%d at t=%s)\n", l.Skew, l.I, l.J, l.At)
	if profile {
		printProfile(core.SkewProfile(exec))
	}
	if chart {
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
