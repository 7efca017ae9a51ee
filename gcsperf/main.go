// Command gcsperf is the repository benchmark: it times the work users of
// the simulator wait for, end to end, and checks every result against the
// committed references.
//
//	bash gcsperf/run.sh --workload stream --seed 7 --seconds 25 --trace 0
//
// Workloads (see WORKLOADS.md): stream (E12-style online skew on long
// lines), search (the E13 -long worst-case search cells), matrix (the
// scenario matrix smoke cells) and construct (the Main Theorem and Add Skew
// constructions). One process, one client, closed loop: each pass runs every
// operation of the workload once, in an order fixed by the seed, on inputs
// built afresh; passes repeat until --seconds have been measured.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced passes, prints the per-layer metrics of the traced passes and the
// tracing overhead, and checks that tracing changed no exact count. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"gcs/internal/engine"
	"gcs/internal/obs"
	"gcs/internal/search"
)

func main() {
	name := flag.String("workload", "", "workload: stream, search, matrix or construct")
	seed := flag.Int64("seed", defaultSeed, "workload seed: fixes the order of the operations in a pass")
	seconds := flag.Float64("seconds", 20, "seconds of passes to measure")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	// One processor: the benchmark is one client evaluating with one
	// worker, so this only keeps the collector's background workers off the
	// second core, whose load from other tenants otherwise leaks into every
	// pass time.
	runtime.GOMAXPROCS(1)
	out, err := run(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcsperf:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStats is one measured pass.
type passStats struct {
	seconds   float64
	alloc     uint64 // heap bytes allocated
	stepAlloc uint64 // the part of alloc inside spans whose engine steps are counted
	gcCycles  uint32
	gcPause   uint64 // ns
	results   []result
	counts    map[string]uint64
	tr        *tracer
}

// Warm set-ups are timed in batches: a batch repeats the set-up, with no
// collection forced inside it, until setupBatch has passed, and gives the
// mean time of one set-up. Batches repeat for setupBudget before the first
// pass (at least setupBatches of them), and once more after every round of
// passes, so they sample the host across the whole run. setup_s is the
// fastest batch's, for the reason pass_s is the fastest pass's
// (WORKLOADS.md has the measurements).
const (
	setupBatch   = 50 * time.Millisecond
	setupBatches = 5
	setupBudget  = 500 * time.Millisecond
)

func run(name string, seed int64, seconds float64, traced bool) (string, error) {
	w, err := findWorkload(name)
	if err != nil {
		return "", err
	}
	if seconds <= 0 {
		return "", fmt.Errorf("--seconds %v: must be positive", seconds)
	}
	// The process's first set-up is cold and timed alone; its excess over a
	// warm set-up is part of the warm-up cost.
	t0 := time.Now()
	p, err := setup(w, ".", seed)
	if err != nil {
		return "", err
	}
	cold := time.Since(t0).Seconds()
	if len(p.ops) == 0 {
		return "", fmt.Errorf("%s: no operations", name)
	}
	var batches []float64
	batch := func() error {
		runtime.GC() // every batch starts from the same heap
		n, t0 := 0, time.Now()
		for ; n == 0 || time.Since(t0) < setupBatch; n++ {
			if _, err := setup(w, ".", seed); err != nil {
				return err
			}
		}
		batches = append(batches, time.Since(t0).Seconds()/float64(n))
		return nil
	}
	for start := time.Now(); len(batches) < setupBatches || time.Since(start) < setupBudget; {
		if err := batch(); err != nil {
			return "", err
		}
	}

	rep := report{Correct: true, Metrics: map[string]metric{}}
	tally := func(label string, ps passStats) {
		failed, why := check(ps.results, p.want)
		rep.Attempted += len(ps.results)
		rep.Failed += failed
		for _, m := range why {
			fmt.Fprintf(os.Stderr, "%s failed: %s\n", label, m)
		}
		fmt.Fprintf(os.Stderr, "%s %s: %.4f s, %.1f MB allocated, %d of %d failed\n",
			name, label, ps.seconds, float64(ps.alloc)/1e6, failed, len(ps.results))
	}
	// measureFor runs passes for budget seconds (at least two rounds). A
	// round is one pass per tracer kind, so the kinds alternate and see the
	// same host conditions; a set-up batch follows every round.
	measureFor := func(budget float64, kinds ...func() *tracer) ([][]passStats, error) {
		out := make([][]passStats, len(kinds))
		t0 := time.Now()
		for round := 1; round <= 2 || time.Since(t0).Seconds() < budget; round++ {
			for k, tr := range kinds {
				ps := measure(p, tr(), p.w.run)
				tally(fmt.Sprintf("pass %d.%d", round, k), ps)
				out[k] = append(out[k], ps)
			}
			if err := batch(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	noTracer := func() *tracer { return nil }
	// The warm-up cost: the cold set-up's excess over a warm one, plus the
	// first pass's excess over the fastest.
	warmup := func(passes []passStats) float64 {
		cost := cold - slices.Min(batches) + passes[0].seconds - fastest(passes)
		fmt.Fprintf(os.Stderr, "%s set-up: cold %.6f s, warm %.6f s (fastest of %d batches, median %.6f s); warm-up cost %.4f s\n",
			name, cold, slices.Min(batches), len(batches), median(batches), cost)
		return cost
	}

	if !traced {
		runs, err := measureFor(seconds, noTracer)
		if err != nil {
			return "", err
		}
		passes := runs[0]
		warmup(passes)
		rss, err := peakRSSMB()
		if err != nil {
			return "", err
		}
		rep.Metrics["setup_s"] = metric{slices.Min(batches), "s"}
		rep.Metrics["pass_s"] = metric{fastest(passes), "s"}
		rep.Metrics["alloc_mb"] = metric{median(field(passes, func(s passStats) float64 { return float64(s.alloc) / 1e6 })), "MB"}
		rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	} else {
		runs, err := measureFor(seconds, noTracer, newTracer)
		if err != nil {
			return "", err
		}
		plain, tracedPasses := runs[0], runs[1]
		// The engine and search counters come from the workload's own
		// passes, or, when it has a probe, from one untraced and one traced
		// probe pass.
		groups := [][2][]passStats{{plain, tracedPasses}}
		if p.w.probe != nil {
			pp, tp := measure(p, nil, p.w.probe), measure(p, newTracer(), p.w.probe)
			tally("probe", pp)
			tally("traced probe", tp)
			groups = append(groups, [2][]passStats{{pp}, {tp}})
		}
		// Tracing must not change what the program does: every exact count
		// of every pass equals the first untraced pass's of its group.
		for _, g := range groups {
			ref := g[0][0].counts
			for k, kind := range []string{"untraced", "traced"} {
				for i, ps := range g[k] {
					if !reflect.DeepEqual(ps.counts, ref) {
						rep.Correct = false
						fmt.Fprintf(os.Stderr, "%s pass %d counts %v differ from the first untraced pass's %v\n", kind, i+1, ps.counts, ref)
					}
				}
			}
		}
		counted := groups[len(groups)-1]
		rep.Metrics = layerMetrics(plain, tracedPasses, counted[0], counted[1])
		rep.Metrics["bench.warmup_s"] = metric{warmup(plain), "s"}
		fmt.Fprintf(os.Stderr, "%s tracing overhead: traced pass_s / untraced pass_s = %.3f\n",
			name, rep.Metrics["bench.trace_overhead"].Value)
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func newEnv(tr *tracer) *env {
	reg := obs.NewRegistry()
	return &env{tr: tr, eng: engine.NewMetrics(reg), src: search.NewMetrics(reg)}
}

// measure runs one pass with fresh counters. A collection first gives every
// pass the same starting heap; it is not part of the pass.
func measure(p *plan, tr *tracer, run func(in any, o op, e *env) (string, error)) passStats {
	e := newEnv(tr)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	results := p.pass(e, run)
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return passStats{
		seconds:   dt.Seconds(),
		alloc:     m1.TotalAlloc - m0.TotalAlloc,
		stepAlloc: e.stepAlloc,
		gcCycles:  m1.NumGC - m0.NumGC,
		gcPause:   m1.PauseTotalNs - m0.PauseTotalNs,
		results:   results,
		counts:    counts(e),
		tr:        tr,
	}
}

// counts reads a pass's exact engine and search counters.
func counts(e *env) map[string]uint64 {
	return map[string]uint64{
		"engine.steps":              e.eng.Steps.Value(),
		"engine.forks":              e.eng.Forks.Value(),
		"engine.schedule_swaps":     e.eng.ScheduleSwaps.Value(),
		"engine.fixed_lane_runs":    e.eng.FixedLaneRuns.Value(),
		"engine.rat_lane_runs":      e.eng.RatLaneRuns.Value(),
		"engine.fixed_fallbacks":    e.eng.FixedFallbacks.Value(),
		"engine.dropped":            e.eng.Dropped.Value(),
		"engine.clock_cache_hits":   e.eng.ClockCacheHits.Value(),
		"engine.clock_cache_misses": e.eng.ClockCacheMisses.Value(),
		"search.generations":        e.src.Generations.Value(),
		"search.candidates":         e.src.Candidates.Value(),
		"search.engine_steps":       e.src.EngineSteps.Value(),
		"search.candidate_steps":    e.src.CandidateSteps.Value(),
		"search.prefix_saved":       e.src.PrefixSavedSteps.Value(),
	}
}

// spanSecs is the median over passes of layer l's span time (total, or self
// when self is set), in seconds.
func spanSecs(ps []passStats, l layer, self bool) float64 {
	return median(field(ps, func(s passStats) float64 {
		if self {
			return float64(s.tr.self[l]) / 1e9
		}
		return float64(s.tr.total[l]) / 1e9
	}))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: span times are medians over
// the traced passes, counts are exact (equal on every pass). The counters,
// the allocation per counted step and the engine-run, adversary and search
// spans are read from countPlain and countTraced, the untraced and traced
// passes that carry the counters: the workload's own, or its probe's.
func layerMetrics(plain, traced, countPlain, countTraced []passStats) map[string]metric {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	last := traced[len(traced)-1]
	calls := func(l layer) float64 { return float64(last.tr.calls[l]) }
	secs := func(l layer) float64 { return spanSecs(traced, l, false) }
	inner, c := countTraced, countTraced[len(countTraced)-1].counts

	steps := float64(c["engine.steps"])
	runS := spanSecs(inner, lEngineRun, false)
	set("engine.steps", "count", steps)
	set("engine.run_s", "s", runS)
	set("engine.self_s", "s", spanSecs(inner, lEngineRun, true))
	// Per step of the runs the benchmark drives itself (run_s covers those,
	// not the search's own engines).
	set("engine.ns_per_step", "ns", ratio(runS*1e9, steps-float64(c["search.engine_steps"])))
	set("engine.new_s", "s", secs(lEngineNew))
	set("engine.fixed_fallback_ratio", "ratio", ratio(float64(c["engine.fixed_fallbacks"]), steps))
	set("engine.forks", "count", float64(c["engine.forks"]))
	set("engine.schedule_swaps", "count", float64(c["engine.schedule_swaps"]))
	set("engine.fixed_lane_runs", "count", float64(c["engine.fixed_lane_runs"]))
	set("engine.rat_lane_runs", "count", float64(c["engine.rat_lane_runs"]))
	hits := float64(c["engine.clock_cache_hits"])
	set("engine.clock_cache_hit_ratio", "ratio", ratio(hits, hits+float64(c["engine.clock_cache_misses"])))
	set("engine.dropped", "count", float64(c["engine.dropped"]))
	set("engine.adversary_s", "s", spanSecs(inner, lAdversary, false))
	set("engine.adversary_calls", "count", float64(inner[len(inner)-1].tr.calls[lAdversary]))
	set("algorithms.handler_s", "s", spanSecs(traced, lHandler, true))
	set("algorithms.handler_calls", "count", calls(lHandler))
	set("core.tracker_s", "s", secs(lTracker))
	set("core.tracker_calls", "count", calls(lTracker))
	set("core.readout_s", "s", secs(lReadout))

	searchS := spanSecs(inner, lSearch, false)
	cands := float64(c["search.candidates"])
	engSteps := float64(c["search.engine_steps"])
	candSteps := float64(c["search.candidate_steps"])
	set("search.search_s", "s", searchS)
	set("search.candidates", "count", cands)
	set("search.generations", "count", float64(c["search.generations"]))
	set("search.engine_steps", "count", engSteps)
	set("search.candidate_steps", "count", candSteps)
	set("search.prefix_saved_ratio", "ratio", ratio(float64(c["search.prefix_saved"]), candSteps))
	set("search.ns_per_candidate", "ns", ratio(searchS*1e9, cands))
	set("search.ns_per_engine_step", "ns", ratio(searchS*1e9, engSteps))

	set("lowerbound.seed_s", "s", secs(lSeed))
	set("lowerbound.maintheorem_s", "s", secs(lMainTheorem))
	set("lowerbound.addskew_s", "s", secs(lAddSkew))
	set("network.generate_s", "s", secs(lGenerate))
	set("scenario.cell_s", "s", secs(lCell))
	set("scenario.cells", "count", calls(lCell))

	set("runtime.gc_cycles", "count", median(field(traced, func(s passStats) float64 { return float64(s.gcCycles) })))
	set("runtime.gc_pause_s", "s", median(field(traced, func(s passStats) float64 { return float64(s.gcPause) / 1e9 })))
	// Heap bytes per engine step, from untraced passes (the wrappers
	// allocate): only what the counted spans allocate, over their steps.
	stepAlloc := median(field(countPlain, func(s passStats) float64 { return float64(s.stepAlloc) }))
	set("runtime.bytes_per_step", "B", ratio(stepAlloc, steps))

	set("bench.trace_overhead", "ratio", ratio(fastest(traced), fastest(plain)))
	return out
}

func field(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// fastest is the shortest pass time. On a shared host other tenants slow
// whole stretches of a run (WORKLOADS.md has the measurements), so the
// fastest pass is the steady estimate of what the code itself costs; every
// pass time is printed on standard error.
func fastest(ps []passStats) float64 {
	xs := field(ps, func(s passStats) float64 { return s.seconds })
	sort.Float64s(xs)
	return xs[0]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
