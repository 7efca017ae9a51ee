package search

import (
	"fmt"
	"runtime"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// benchCandidates builds a fixed, deterministic candidate batch by capturing
// the base run and snapping one sampled decision per candidate — the exact
// per-round workload of the search loop.
func benchCandidates(b *testing.B, opt Options) []candidate {
	b.Helper()
	if err := normalize(&opt); err != nil {
		b.Fatal(err)
	}
	log := NewDecisionLog()
	seedEval := evaluate(opt, candidate{rates: make([]rat.Rat, opt.Net.N())}, log)
	if seedEval.err != nil {
		b.Fatal(seedEval.err)
	}
	seedEval.log = log
	return mutations(opt, seedEval, seedEval.log.Script())
}

// BenchmarkSearch measures candidate-evaluation throughput of one search
// round as the worker pool grows: evaluations are independent simulations,
// so the speedup should stay near-linear until the core count is exhausted.
func BenchmarkSearch(b *testing.B) {
	net, err := network.Line(9)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{
		Net:            net,
		Protocol:       algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration:       rat.FromInt(24),
		Rho:            rat.MustFrac(1, 2),
		DelayMutations: 12,
	}
	if err := normalize(&opt); err != nil {
		b.Fatal(err)
	}
	cands := benchCandidates(b, opt)
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opt
			o.Workers = workers
			b.ReportAllocs()
			b.ReportMetric(float64(len(cands)), "candidates/op")
			for i := 0; i < b.N; i++ {
				results, _ := evalAll(o, cands)
				for _, ev := range results {
					if ev.err != nil {
						b.Fatal(ev.err)
					}
				}
			}
		})
	}
}

// longE13Opts is the E13 -long scale workload: the two-node diameter-16
// cell's search configuration (certified-bound horizon, tail-biased delay
// mutations), shared by the end-to-end and prefix-cached benchmarks so the
// steps-per-candidate comparison is apples to apples.
func longE13Opts(tb testing.TB) Options {
	tb.Helper()
	d := rat.FromInt(16)
	net, err := network.TwoNode(d)
	if err != nil {
		tb.Fatal(err)
	}
	return Options{
		Net:            net,
		Protocol:       algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration:       rat.FromInt(2).Mul(d), // τ·d with the default ρ = 1/2
		Rho:            rat.MustFrac(1, 2),
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
		MutateTail:     rat.MustFrac(1, 2),
	}
}

// BenchmarkSearchEndToEnd measures a whole search with prefix caching
// disabled — every candidate re-simulated from scratch, the pre-fork
// engine's behavior — on the E13 -long workload. Compare its steps/cand
// metric with BenchmarkSearchPrefixCached to quantify the prefix-cache win.
func BenchmarkSearchEndToEnd(b *testing.B) {
	opt := longE13Opts(b)
	opt.fromScratch = true
	benchSearch(b, opt)
}

// BenchmarkSearchPrefixCached is the identical workload evaluated through
// the prefix-tree scheduler: shared script prefixes run once, forks evaluate
// suffixes only. Byte-identical results, fewer engine steps per candidate.
func BenchmarkSearchPrefixCached(b *testing.B) {
	benchSearch(b, longE13Opts(b))
}

// BenchmarkSearchRateWindows is the E13 -long workload with windowed rate
// surgery enabled: each beam parent fans out rate-window mutants alongside
// delay mutants, all sharing the parent's trunk — window mutants fork at
// their window's start with the schedule swapped in. The steps/cand metric
// against BenchmarkSearchEndToEnd quantifies the rate-mutant sharing win.
func BenchmarkSearchRateWindows(b *testing.B) {
	opt := longE13Opts(b)
	opt.RateWindows = 4
	benchSearch(b, opt)
}

func benchSearch(b *testing.B, opt Options) {
	b.Helper()
	// The CI perf gate watches this pair's allocs/op alongside ns/op.
	b.ReportAllocs()
	var sink map[trace.MsgKey]rat.Rat
	for i := 0; i < b.N; i++ {
		res, err := Search(opt)
		if err != nil {
			b.Fatal(err)
		}
		sink = res.Script
		b.ReportMetric(float64(res.EngineSteps), "steps/op")
		b.ReportMetric(float64(res.EngineSteps)/float64(res.Evaluated), "steps/cand")
		b.ReportMetric(float64(res.CandidateSteps)/float64(res.Evaluated), "resim-steps/cand")
	}
	_ = sink
}
