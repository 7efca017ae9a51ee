// Package perf defines the repository's gated performance workloads and the
// machinery behind the CI perf-regression gate.
//
// Exact-metric snapshots (BENCH_*.json experiment tables) are deterministic
// and diff-checked in CI, but they cannot see a throughput regression: a
// change that doubles ns/step still produces identical tables. This package
// closes that gap in two ways:
//
//   - Snapshot measures the gated workloads in-process via testing.Benchmark
//     and reports machine-readable ns/step and allocs/step (`gcsbench -perf`,
//     `make bench-perf` → BENCH_perf.json). Timing numbers are
//     machine-dependent: the committed snapshot records the trajectory on the
//     maintainer's machine and is NOT diff-checked in CI.
//
//   - ParseBench + Gate implement the CI gate (cmd/perfgate): parse two
//     `go test -bench` outputs (merge base vs head), aggregate each gated
//     benchmark by median across -count repetitions, and flag any benchmark
//     whose ns/op or allocs/op regressed past its threshold.
//
// The gated workloads mirror the benchmarks `make bench-gated` runs for the
// CI gate (the Makefile's GATED_BENCH list), so a local `gcsbench -perf`
// and the CI gate watch the same hot paths.
package perf

import (
	"encoding/json"
	"fmt"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// stepsUnit is the per-workload ReportMetric unit Snapshot divides by to
// derive per-step figures.
const stepsUnit = "steps/op"

// Workload is one gated performance scenario, runnable under
// testing.Benchmark. Bench must call b.ReportAllocs and report the number of
// engine events dispatched per iteration as the "steps/op" metric.
type Workload struct {
	Name  string
	Bench func(b *testing.B)
}

// Measurement is one workload's measured cost in machine-readable form.
type Measurement struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	StepsPerOp    float64 `json:"steps_per_op"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

// Workloads returns the gated scenarios: the E12 streaming-engine workload
// at two durations, the fork-and-suffix unit of prefix-cached evaluation,
// the fork-only unit on a wide gradient line (per-node estimate state at its
// heaviest), the E14 adaptive-adversary run, the E13 search workload through
// both evaluation paths plus its windowed-rate-surgery variant (rate-window
// mutants sharing the trunk via schedule swaps).
func Workloads() ([]Workload, error) {
	ws := []Workload{}
	for _, dur := range []int64{32, 96} {
		w, err := engineStreamWorkload(dur)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	fork, err := engineForkWorkload()
	if err != nil {
		return nil, err
	}
	forkGrad, err := engineForkGradientWorkload()
	if err != nil {
		return nil, err
	}
	adaptive, err := adaptiveRunWorkload()
	if err != nil {
		return nil, err
	}
	ws = append(ws, fork, forkGrad, adaptive)
	cached, err := searchWorkload(false, 0)
	if err != nil {
		return nil, err
	}
	scratch, err := searchWorkload(true, 0)
	if err != nil {
		return nil, err
	}
	windows, err := searchWorkload(false, 4)
	if err != nil {
		return nil, err
	}
	return append(ws, cached, scratch, windows), nil
}

// engineStreamWorkload mirrors BenchmarkEngineStream: a 64-node drifting
// line under the reproducible random adversary with an online skew tracker,
// the E12 streaming workload.
func engineStreamWorkload(dur int64) (Workload, error) {
	net, err := network.Line(64)
	if err != nil {
		return Workload{}, err
	}
	scheds, err := clock.Diverse(64, rat.FromInt(1), rat.MustFrac(5, 4), 4, 7)
	if err != nil {
		return Workload{}, err
	}
	duration := rat.FromInt(dur)
	return Workload{
		Name: fmt.Sprintf("EngineStream/dur=%d", dur),
		Bench: func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			for i := 0; i < b.N; i++ {
				tracker, err := core.NewSkewTracker(net, scheds)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.New(net,
					engine.WithProtocol(algorithms.MaxGossip(rat.FromInt(1))),
					engine.WithAdversary(engine.HashAdversary{Seed: 7, Denom: 8}),
					engine.WithSchedules(scheds),
					engine.WithRho(rat.MustFrac(1, 2)),
					engine.WithObservers(tracker),
				)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.RunUntil(duration); err != nil {
					b.Fatal(err)
				}
				steps = eng.Steps()
			}
			b.ReportMetric(float64(steps), stepsUnit)
		},
	}, nil
}

// engineForkWorkload mirrors BenchmarkEngineFork: fork a warmed 17-node
// gossip line and run a two-time-unit suffix on the fork — the per-mutant
// unit of work in prefix-cached search.
func engineForkWorkload() (Workload, error) {
	net, err := network.Line(17)
	if err != nil {
		return Workload{}, err
	}
	scheds, err := clock.Diverse(17, rat.FromInt(1), rat.MustFrac(5, 4), 4, 7)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: "EngineFork/line17",
		Bench: func(b *testing.B) {
			eng, err := engine.New(net,
				engine.WithProtocol(algorithms.MaxGossip(rat.FromInt(1))),
				engine.WithAdversary(engine.HashAdversary{Seed: 7, Denom: 8}),
				engine.WithSchedules(scheds),
				engine.WithRho(rat.MustFrac(1, 2)),
			)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.RunUntil(rat.FromInt(16)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var steps uint64
			for i := 0; i < b.N; i++ {
				fork, err := eng.Fork()
				if err != nil {
					b.Fatal(err)
				}
				if err := fork.RunFor(rat.FromInt(2)); err != nil {
					b.Fatal(err)
				}
				steps = fork.Steps() - eng.Steps()
			}
			b.ReportMetric(float64(steps), stepsUnit)
		},
	}, nil
}

// engineForkGradientWorkload mirrors BenchmarkEngineForkGradient: the fork
// operation alone on a warmed 33-node gradient line, where every node
// carries a neighbor-estimate table. It gates the copy-on-write clone
// discipline — allocs/op here must stay O(1) in network width.
func engineForkGradientWorkload() (Workload, error) {
	const n = 33
	net, err := network.Line(n)
	if err != nil {
		return Workload{}, err
	}
	scheds, err := clock.Diverse(n, rat.FromInt(1), rat.MustFrac(5, 4), 4, 7)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: "EngineForkGradient/line33",
		Bench: func(b *testing.B) {
			eng, err := engine.New(net,
				engine.WithProtocol(algorithms.Gradient(algorithms.DefaultGradientParams())),
				engine.WithAdversary(engine.HashAdversary{Seed: 7, Denom: 8}),
				engine.WithSchedules(scheds),
				engine.WithRho(rat.MustFrac(1, 2)),
			)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.RunUntil(rat.FromInt(16)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Fork(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.Steps()), stepsUnit)
		},
	}, nil
}

// adaptiveRunWorkload mirrors BenchmarkAdaptiveRun: the generalized §2
// online scheduler on the E14 two-node d=8 cell, gating the stateful
// observe-and-decide adversary path.
func adaptiveRunWorkload() (Workload, error) {
	p := lowerbound.DefaultParams()
	d := rat.FromInt(8)
	net, err := network.TwoNode(d)
	if err != nil {
		return Workload{}, err
	}
	dur := p.Tau().Mul(d)
	scheds := make([]*clock.Schedule, net.N())
	for i := range scheds {
		scheds[i] = clock.Constant(rat.FromInt(1))
	}
	scheds[0] = clock.Constant(p.RateBandHigh())
	return Workload{
		Name: "AdaptiveRun/E14",
		Bench: func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			for i := 0; i < b.N; i++ {
				adv, err := lowerbound.NewAdaptiveScheduler(net, 0, 1, lowerbound.AutoThreshold(p.Rho, dur))
				if err != nil {
					b.Fatal(err)
				}
				tracker, err := core.NewSkewTracker(net, scheds)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := engine.New(net,
					engine.WithProtocol(algorithms.Gradient(algorithms.DefaultGradientParams())),
					engine.WithAdversary(adv),
					engine.WithSchedules(scheds),
					engine.WithRho(p.Rho),
					engine.WithObservers(tracker),
				)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.RunUntil(dur); err != nil {
					b.Fatal(err)
				}
				if err := tracker.Err(); err != nil {
					b.Fatal(err)
				}
				steps = eng.Steps()
			}
			b.ReportMetric(float64(steps), stepsUnit)
		},
	}, nil
}

// searchWorkload mirrors BenchmarkSearchPrefixCached / BenchmarkSearchEndToEnd
// / BenchmarkSearchRateWindows: the E13 -long two-node diameter-16 search
// configuration, evaluated through the prefix-tree scheduler or from scratch,
// optionally with windowed rate surgery (rateWindows > 0) fanning schedule-
// swapped mutants off the shared trunk.
func searchWorkload(disableCache bool, rateWindows int) (Workload, error) {
	d := rat.FromInt(16)
	net, err := network.TwoNode(d)
	if err != nil {
		return Workload{}, err
	}
	opt := search.Options{
		Net:                net,
		Protocol:           algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration:           rat.FromInt(2).Mul(d),
		Rho:                rat.MustFrac(1, 2),
		Rounds:             3,
		Beam:               2,
		DelayMutations:     8,
		MutateTail:         rat.MustFrac(1, 2),
		RateWindows:        rateWindows,
		DisablePrefixCache: disableCache,
	}
	name := "SearchPrefixCached/E13"
	if disableCache {
		name = "SearchEndToEnd/E13"
	}
	if rateWindows > 0 {
		name = fmt.Sprintf("SearchRateWindows/E13/w=%d", rateWindows)
	}
	return Workload{
		Name: name,
		Bench: func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			for i := 0; i < b.N; i++ {
				res, err := search.Search(opt)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.EngineSteps
			}
			b.ReportMetric(float64(steps), stepsUnit)
		},
	}, nil
}

// Measure runs one workload under testing.Benchmark and derives the
// per-step figures.
func Measure(w Workload) Measurement {
	r := testing.Benchmark(w.Bench)
	m := Measurement{
		Name:        w.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		StepsPerOp:  r.Extra[stepsUnit],
	}
	if m.StepsPerOp > 0 {
		m.NsPerStep = m.NsPerOp / m.StepsPerOp
		m.AllocsPerStep = m.AllocsPerOp / m.StepsPerOp
	}
	return m
}

// Snapshot measures every gated workload.
func Snapshot() ([]Measurement, error) {
	ws, err := Workloads()
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, len(ws))
	for _, w := range ws {
		out = append(out, Measure(w))
	}
	return out, nil
}

// SnapshotJSON is Snapshot rendered as indented JSON, the BENCH_perf.json
// format.
func SnapshotJSON() (string, error) {
	ms, err := Snapshot()
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}
