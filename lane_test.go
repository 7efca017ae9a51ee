package gcs_test

// Cross-lane differential matrix: the fixed-point lane is an execution
// strategy, never a semantics knob, so every run — fresh, forked mid-run, or
// tracked online — must be byte-identical whichever lane the engine picks.
// These tests drive the same configurations once with lane auto-detection
// (the default, which engages the fixed lane on these common-denominator
// workloads) and once with the rat lane forced, and compare executions
// action for action and ledger entry for ledger entry.

import (
	"fmt"
	"testing"

	"gcs"
)

// laneRun executes one fresh end-to-end run under the given lane and returns
// its execution, tracker, and engine.
func laneRun(t *testing.T, net *gcs.Network, proto gcs.Protocol, scheds []*gcs.Schedule, dur gcs.Rat, lane gcs.Lane) (*gcs.Execution, *gcs.SkewTracker, *gcs.Engine) {
	t.Helper()
	skew, err := gcs.NewSkewTracker(net, scheds)
	if err != nil {
		t.Fatal(err)
	}
	rec := gcs.NewRecorder(net.N())
	eng, err := gcs.NewEngine(net,
		gcs.WithProtocol(proto),
		gcs.WithAdversary(gcs.HashAdversary{Seed: 7, Denom: 8}),
		gcs.WithSchedules(scheds),
		gcs.WithRho(gcs.Frac(1, 2)),
		gcs.WithObservers(rec, skew),
		gcs.WithLane(lane),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	exec, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	return exec, skew, eng
}

// TestLaneDeterminismMatrix: fresh runs across topologies × protocols are
// byte-identical between the auto-detected fixed lane and the forced rat
// lane, and the online trackers agree to the bit. Also asserts the fixed
// lane actually engages on these workloads — a detection regression would
// otherwise turn the whole matrix into rat-vs-rat.
func TestLaneDeterminismMatrix(t *testing.T) {
	dur := gcs.R(12)
	fixedRuns := 0
	for _, net := range forkTopologies(t) {
		for _, proto := range gcs.AllProtocols() {
			net, proto := net, proto
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
				if err != nil {
					t.Fatal(err)
				}
				autoExec, autoSkew, autoEng := laneRun(t, net, proto, scheds, dur, gcs.LaneAuto)
				ratExec, ratSkew, ratEng := laneRun(t, net, proto, scheds, dur, gcs.LaneRat)
				if ratEng.TimeLane() != "rat" {
					t.Fatalf("forced rat lane reports %q", ratEng.TimeLane())
				}
				if autoEng.TimeLane() == "fixed" {
					fixedRuns++
				}
				execEqual(t, "auto lane vs rat lane", ratExec, autoExec)
				if !autoSkew.Global().Skew.Equal(ratSkew.Global().Skew) ||
					autoSkew.Global().Skew.Key() != ratSkew.Global().Skew.Key() {
					t.Fatalf("tracker global skew differs across lanes: %s vs %s",
						autoSkew.Global().Skew, ratSkew.Global().Skew)
				}
				if !autoSkew.Local().Skew.Equal(ratSkew.Local().Skew) {
					t.Fatalf("tracker local skew differs across lanes: %s vs %s",
						autoSkew.Local().Skew, ratSkew.Local().Skew)
				}
			})
		}
	}
	if fixedRuns == 0 {
		t.Fatal("fixed lane never engaged; the matrix compared rat against rat")
	}
}

// TestLaneForkMatrix: a run forked mid-way on the fixed lane — inheriting
// queued tick keys, cached hardware readings, and tracker tick mirrors —
// must finish byte-identical to a fresh rat-lane run, across topologies for
// the protocols with the heaviest per-node state.
func TestLaneForkMatrix(t *testing.T) {
	dur := gcs.R(12)
	protos := []gcs.Protocol{
		gcs.MaxGossip(gcs.R(1)),
		gcs.Gradient(gcs.DefaultGradientParams()),
		gcs.LLW(gcs.DefaultLLWParams()),
	}
	for _, net := range forkTopologies(t) {
		for _, proto := range protos {
			net, proto := net, proto
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
				if err != nil {
					t.Fatal(err)
				}
				refExec, refSkew, _ := laneRun(t, net, proto, scheds, dur, gcs.LaneRat)

				skew, err := gcs.NewSkewTracker(net, scheds)
				if err != nil {
					t.Fatal(err)
				}
				rec := gcs.NewRecorder(net.N())
				trunk, err := gcs.NewEngine(net,
					gcs.WithProtocol(proto),
					gcs.WithAdversary(gcs.HashAdversary{Seed: 7, Denom: 8}),
					gcs.WithSchedules(scheds),
					gcs.WithRho(gcs.Frac(1, 2)),
					gcs.WithObservers(rec, skew),
				)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					if ok, err := trunk.Step(); err != nil {
						t.Fatal(err)
					} else if !ok {
						break
					}
				}
				fork, err := trunk.Fork()
				if err != nil {
					t.Fatal(err)
				}
				frec := rec.Clone()
				fskew := skew.Clone()
				fork.Observe(frec, fskew)
				if err := fork.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				forkExec, err := fork.Execution(frec)
				if err != nil {
					t.Fatal(err)
				}
				execEqual(t, "fixed-lane fork vs rat-lane fresh", refExec, forkExec)
				if !fskew.Global().Skew.Equal(refSkew.Global().Skew) {
					t.Fatalf("forked tracker global skew %s vs rat-lane %s",
						fskew.Global().Skew, refSkew.Global().Skew)
				}
			})
		}
	}
}

// FuzzLaneRun drives whole executions through both lanes for fuzzed
// configurations — schedule seed, rate band, and adversary quantization —
// and requires byte-identical results. This is the end-to-end complement to
// internal/fixed's FuzzLane (which pins individual tick operations): here
// the fuzzer hunts for configurations where lane detection, clock
// compilation, event keying, and tracker mirroring disagree in composition.
func FuzzLaneRun(f *testing.F) {
	f.Add(uint64(7), int64(4), int64(8), int64(5))
	f.Add(uint64(17), int64(16), int64(16), int64(4))
	f.Add(uint64(1), int64(3), int64(5), int64(3))
	f.Add(uint64(99), int64(7), int64(1), int64(7))
	f.Fuzz(func(t *testing.T, seed uint64, rateDen, advDen, steps int64) {
		if rateDen < 1 || rateDen > 64 || advDen < 1 || advDen > 64 || steps < 1 || steps > 8 {
			t.Skip()
		}
		net, err := gcs.Line(4)
		if err != nil {
			t.Fatal(err)
		}
		scheds, err := gcs.DiverseSchedules(4, gcs.Frac(rateDen, rateDen+1),
			gcs.Frac(rateDen+1, rateDen), steps, seed)
		if err != nil {
			t.Skip()
		}
		run := func(lane gcs.Lane) (*gcs.Execution, *gcs.SkewTracker) {
			skew, err := gcs.NewSkewTracker(net, scheds)
			if err != nil {
				t.Fatal(err)
			}
			rec := gcs.NewRecorder(4)
			eng, err := gcs.NewEngine(net,
				gcs.WithProtocol(gcs.Gradient(gcs.DefaultGradientParams())),
				gcs.WithAdversary(gcs.HashAdversary{Seed: seed, Denom: advDen}),
				gcs.WithSchedules(scheds),
				gcs.WithRho(gcs.Frac(1, 2)),
				gcs.WithObservers(rec, skew),
				gcs.WithLane(lane),
			)
			if err != nil {
				t.Skip()
			}
			if err := eng.RunUntil(gcs.R(8)); err != nil {
				t.Skip()
			}
			exec, err := eng.Execution(rec)
			if err != nil {
				t.Fatal(err)
			}
			return exec, skew
		}
		autoExec, autoSkew := run(gcs.LaneAuto)
		ratExec, ratSkew := run(gcs.LaneRat)
		execEqual(t, "fuzzed auto vs rat", ratExec, autoExec)
		if autoSkew.Global().Skew.Key() != ratSkew.Global().Skew.Key() {
			t.Fatalf("tracker global skew differs: %s vs %s",
				autoSkew.Global().Skew, ratSkew.Global().Skew)
		}
	})
}
