package gcs

// One benchmark per experiment in the README's "Experiment index".
// The paper has no measurement tables — its evaluation is its constructions —
// so each benchmark executes the corresponding construction/scenario and
// reports the headline quantity via b.ReportMetric, making `go test -bench`
// a one-command regeneration of every checkable result. cmd/gcsbench prints
// the full tables.

import (
	"fmt"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/experiments"
	"gcs/internal/lowerbound"
)

func BenchmarkE1Shift(b *testing.B) {
	opt := experiments.DefaultE1(AllProtocols())
	opt.Distances = []int64{1, 8}
	var sep float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E1Shift(opt)
		if err != nil {
			b.Fatal(err)
		}
		sep = rows[len(rows)-1].Separation.Float64()
	}
	b.ReportMetric(sep, "separation@d=8")
}

func BenchmarkE2AddSkew(b *testing.B) {
	opt := experiments.DefaultE2(AllProtocols())
	opt.Lines = []int{9, 17}
	opt.RenderFigure = false
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, _, _, err := experiments.E2AddSkew(opt)
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[len(rows)-1].Gain.Float64()
	}
	b.ReportMetric(gain, "gain@n=17")
}

func BenchmarkE3BoundedIncrease(b *testing.B) {
	opt := experiments.DefaultE3(AllProtocols())
	var implied float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E3BoundedIncrease(opt)
		if err != nil {
			b.Fatal(err)
		}
		implied = rows[len(rows)-1].ImpliedF1.Float64()
	}
	b.ReportMetric(implied, "impliedF1")
}

func BenchmarkE4MainTheorem(b *testing.B) {
	opt := experiments.DefaultE4(AllProtocols()[1:2]) // max-gossip only: the heavy one
	opt.RoundsList = []int{3}
	var adj float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E4MainTheorem(opt)
		if err != nil {
			b.Fatal(err)
		}
		adj = rows[len(rows)-1].AdjacentSkew.Float64()
	}
	b.ReportMetric(adj, "adjacentSkew@D=65")
}

func BenchmarkE5Counterexample(b *testing.B) {
	opt := experiments.DefaultE5(AllProtocols())
	opt.Dcs = []int64{16}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E5Counterexample(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == "max-gossip" {
				ratio = r.PeakOverDc
			}
		}
	}
	b.ReportMetric(ratio, "maxGossipPeak/D")
}

func BenchmarkE6Profile(b *testing.B) {
	opt := experiments.DefaultE6(AllProtocols())
	var local float64
	for i := 0; i < b.N; i++ {
		profiles, _, err := experiments.E6Profiles(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range profiles {
			if p.Protocol == "gradient" {
				local = p.Local.Float64()
			}
		}
	}
	b.ReportMetric(local, "gradientLocalSkew")
}

func BenchmarkE7TDMA(b *testing.B) {
	opt := experiments.DefaultE7(AllProtocols())
	opt.Diameters = []int{8, 16}
	var advPeak float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E7TDMA(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == "max-gossip" && r.D == 16 {
				advPeak = r.AdvPeak.Float64()
			}
		}
	}
	b.ReportMetric(advPeak, "advSkew@D=16")
}

func BenchmarkE8Applications(b *testing.B) {
	opt := experiments.DefaultE8(AllProtocols())
	var sibling float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E8Applications(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == "gradient" {
				sibling = r.SiblingSkew.Float64()
			}
		}
	}
	b.ReportMetric(sibling, "gradientSiblingSkew")
}

func BenchmarkE9Ablations(b *testing.B) {
	opt := experiments.DefaultE9()
	opt.Thresholds = opt.Thresholds[:2]
	opt.FastMults = opt.FastMults[:1]
	opt.JumpCaps = opt.JumpCaps[:2]
	var advPeak float64
	for i := 0; i < b.N; i++ {
		_, capRows, _, _, err := experiments.E9Ablations(opt)
		if err != nil {
			b.Fatal(err)
		}
		advPeak = capRows[len(capRows)-1].AdvPeak.Float64()
	}
	b.ReportMetric(advPeak, "advPeak@cap=1")
}

func BenchmarkE10Topologies(b *testing.B) {
	opt := experiments.DefaultE10(AllProtocols()[:2])
	var global float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E10Topologies(opt)
		if err != nil {
			b.Fatal(err)
		}
		global = rows[len(rows)-1].Global.Float64()
	}
	b.ReportMetric(global, "globalSkew")
}

// BenchmarkSimThroughput measures raw simulator speed: events per second on
// a gossiping line — the substrate cost underlying every experiment.
func BenchmarkSimThroughput(b *testing.B) {
	net, err := Line(17)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Net:       net,
		Schedules: ConstantSchedules(17, R(1)),
		Adversary: Midpoint(),
		Protocol:  MaxGossip(R(1)),
		Duration:  R(64),
		Rho:       Frac(1, 2),
	}
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		exec, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = len(exec.Actions)
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkGradientAblation sweeps the gradient protocol's threshold — the
// design knob E9 ablates (README "Experiment index") — and reports the local
// skew each value yields on the standard drifting line.
func BenchmarkGradientAblation(b *testing.B) {
	for _, th := range []int64{1, 2, 4} {
		th := th
		b.Run("threshold="+string(rune('0'+th)), func(b *testing.B) {
			params := DefaultGradientParams()
			params.Threshold = R(th)
			net, err := Line(17)
			if err != nil {
				b.Fatal(err)
			}
			scheds, err := DiverseSchedules(17, R(1), Frac(5, 4), 4, 7)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Net:       net,
				Schedules: scheds,
				Adversary: HashAdversary{Seed: 7, Denom: 8},
				Protocol:  Gradient(params),
				Duration:  R(64),
				Rho:       Frac(1, 2),
			}
			var local float64
			for i := 0; i < b.N; i++ {
				exec, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				local = LocalSkew(exec).Skew.Float64()
			}
			b.ReportMetric(local, "localSkew")
		})
	}
}

// streamBenchConfig is the shared setup for the streaming-vs-recorded
// benchmark pair: a drifting line under the reproducible random adversary,
// gossiping hard enough that events dominate.
func streamBenchConfig(b *testing.B, n int, dur int64) (*Network, []*Schedule, Adversary, Protocol, Rat, Rat) {
	b.Helper()
	net, err := Line(n)
	if err != nil {
		b.Fatal(err)
	}
	scheds, err := DiverseSchedules(n, R(1), Frac(5, 4), 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	return net, scheds, HashAdversary{Seed: 7, Denom: 8}, MaxGossip(R(1)), R(dur), Frac(1, 2)
}

// BenchmarkRunRecorded measures the batch path on a 64-node line: every
// action and message is buffered into the Execution, so bytes/op and
// allocs/op grow with the event count (compare the dur=32 and dur=96 runs),
// and the skew metrics cost a further post-hoc scan of the trace.
func BenchmarkRunRecorded(b *testing.B) {
	for _, dur := range []int64{32, 96} {
		dur := dur
		b.Run(fmt.Sprintf("dur=%d", dur), func(b *testing.B) {
			net, scheds, adv, proto, d, rho := streamBenchConfig(b, 64, dur)
			cfg := Config{Net: net, Schedules: scheds, Adversary: adv,
				Protocol: proto, Duration: d, Rho: rho}
			b.ReportAllocs()
			var events int
			var skew float64
			for i := 0; i < b.N; i++ {
				exec, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = len(exec.Actions)
				skew = GlobalSkew(exec).Skew.Float64()
			}
			b.ReportMetric(float64(events), "events/run")
			b.ReportMetric(skew, "globalSkew")
		})
	}
}

// BenchmarkEngineFork measures the bulk-copy fork path the prefix-cached
// search leans on: a warmed 17-node gossip line is forked every iteration
// and the fork alone runs a two-time-unit suffix — the clone cost plus a
// short burst of suffix events, the per-mutant unit of work in E13. Gated in
// CI next to EngineStream.
func BenchmarkEngineFork(b *testing.B) {
	net, scheds, adv, proto, _, rho := streamBenchConfig(b, 17, 32)
	eng, err := NewEngine(net, WithProtocol(proto), WithAdversary(adv),
		WithSchedules(scheds), WithRho(rho))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RunUntil(R(16)); err != nil {
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
		if err := fork.RunFor(R(2)); err != nil {
			b.Fatal(err)
		}
		steps = fork.Steps() - eng.Steps()
	}
	b.ReportMetric(float64(steps), "steps/op")
}

// BenchmarkEngineForkGradient measures the fork operation alone where
// per-node state is heaviest: a wide warmed gradient line, where every node
// carries a neighbor-estimate table. The tables are shared copy-on-write
// across CloneState and the protocol slab-allocates the whole clone set, so
// allocs/op here is O(1) in network width and degree — this gates that
// discipline (a regression to eager per-node deep copies multiplies it by
// the node count). Gated in CI next to EngineFork, which covers the
// fork-plus-suffix per-mutant unit.
func BenchmarkEngineForkGradient(b *testing.B) {
	const n = 33
	net, err := Line(n)
	if err != nil {
		b.Fatal(err)
	}
	scheds, err := DiverseSchedules(n, R(1), Frac(5, 4), 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(net, WithProtocol(Gradient(DefaultGradientParams())),
		WithAdversary(HashAdversary{Seed: 7, Denom: 8}),
		WithSchedules(scheds), WithRho(Frac(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RunUntil(R(16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Fork(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Steps()), "steps/op")
}

// BenchmarkAdaptiveRun measures the E14 adaptive-adversary path: the
// generalized §2 online scheduler on the two-node d=8 cell, source on the
// fast rate band, run to the construction's own horizon with an online skew
// tracker attached. The stateful adversary consults execution state on every
// delay decision, so this gates the observe-and-decide hot path the scripted
// workloads never touch. Gated in CI next to the search workloads.
func BenchmarkAdaptiveRun(b *testing.B) {
	p := lowerbound.DefaultParams()
	d := R(8)
	net, err := TwoNode(d)
	if err != nil {
		b.Fatal(err)
	}
	dur := p.Tau().Mul(d)
	scheds := ConstantSchedules(net.N(), R(1))
	scheds[0] = clock.Constant(p.RateBandHigh())
	b.ReportAllocs()
	var steps uint64
	var forced float64
	for i := 0; i < b.N; i++ {
		adv, err := lowerbound.NewAdaptiveScheduler(net, 0, 1, lowerbound.AutoThreshold(p.Rho, dur))
		if err != nil {
			b.Fatal(err)
		}
		tracker, err := NewSkewTracker(net, scheds)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine(net, WithProtocol(Gradient(DefaultGradientParams())),
			WithAdversary(adv), WithSchedules(scheds), WithRho(p.Rho), WithObservers(tracker))
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
		forced = tracker.Global().Skew.Float64()
	}
	b.ReportMetric(float64(steps), "steps/op")
	b.ReportMetric(forced, "forcedSkew")
}

// BenchmarkEngineStream measures the same runs through the streaming engine
// with online trackers: no action trace, message ledger or declaration
// history is retained (the engine keeps each node's current declaration
// only; a trace.Recorder, absent here, would keep the history), and the
// tracker's state is O(nodes²) however long the run. What a run allocates
// still grows with its events — protocol payloads and handler arithmetic —
// but what it holds does not. The trajectory to watch is allocs/op against
// steps/op (dispatched events) between the dur=32 and dur=96 runs, versus
// BenchmarkRunRecorded's.
func BenchmarkEngineStream(b *testing.B) {
	for _, dur := range []int64{32, 96} {
		dur := dur
		b.Run(fmt.Sprintf("dur=%d", dur), func(b *testing.B) {
			net, scheds, adv, proto, d, rho := streamBenchConfig(b, 64, dur)
			b.ReportAllocs()
			var steps uint64
			var skew float64
			for i := 0; i < b.N; i++ {
				tracker, err := NewSkewTracker(net, scheds)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(net, WithProtocol(proto), WithAdversary(adv),
					WithSchedules(scheds), WithRho(rho), WithObservers(tracker))
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.RunUntil(d); err != nil {
					b.Fatal(err)
				}
				steps = eng.Steps()
				skew = tracker.Global().Skew.Float64()
			}
			b.ReportMetric(float64(steps), "steps/op")
			b.ReportMetric(skew, "globalSkew")
		})
	}
}
