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

// trackerEqual requires two skew trackers over net to hold exactly the same
// results, compared on canonical rational keys: every pair's maximum and
// witness time, the global and local extremes with their witness pairs and
// times, and the gradient profile.
func trackerEqual(t *testing.T, label string, net *gcs.Network, want, got *gcs.SkewTracker) {
	t.Helper()
	same := func(a, b gcs.PairSkew) bool {
		return a.I == b.I && a.J == b.J && a.Skew.Key() == b.Skew.Key() && a.At.Key() == b.At.Key()
	}
	if w, g := want.Global(), got.Global(); !same(w, g) {
		t.Fatalf("%s: global skew %+v vs %+v", label, w, g)
	}
	if w, g := want.Local(), got.Local(); !same(w, g) {
		t.Fatalf("%s: local skew %+v vs %+v", label, w, g)
	}
	net.Pairs(func(i, j int) {
		if w, g := want.Pair(i, j), got.Pair(i, j); !same(w, g) {
			t.Fatalf("%s: pair (%d,%d) skew %+v vs %+v", label, i, j, w, g)
		}
	})
	wp, gp := want.Profile(), got.Profile()
	if len(wp) != len(gp) {
		t.Fatalf("%s: profile of %d distances vs %d", label, len(wp), len(gp))
	}
	for k := range wp {
		if wp[k].Dist.Key() != gp[k].Dist.Key() || wp[k].Pairs != gp[k].Pairs || wp[k].MaxSkew.Key() != gp[k].MaxSkew.Key() {
			t.Fatalf("%s: profile point %d %+v vs %+v", label, k, wp[k], gp[k])
		}
	}
}

// TestLaneDeterminismMatrix: fresh runs across topologies × protocols are
// byte-identical between the auto-detected fixed lane and the forced rat
// lane, and the online trackers agree to the bit, witnesses included. The
// protocols are the portfolio plus offGridProtocol, whose declarations send
// the fixed lane's tracker through its rational fallback. Also asserts the
// fixed lane actually engages on these workloads — a detection regression
// would otherwise turn the whole matrix into rat-vs-rat.
func TestLaneDeterminismMatrix(t *testing.T) {
	dur := gcs.R(12)
	fixedRuns := 0
	for _, net := range forkTopologies(t) {
		for _, proto := range append(gcs.AllProtocols(), offGridProtocol{}) {
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
				trackerEqual(t, "auto lane vs rat lane", net, ratSkew, autoSkew)
			})
		}
	}
	if fixedRuns == 0 {
		t.Fatal("fixed lane never engaged; the matrix compared rat against rat")
	}
}

// TestLaneForkMatrix: a run forked mid-way on the fixed lane — inheriting
// queued tick keys, cached hardware readings, and the tracker's tick-held
// maxima and per-instant clock values — must finish byte-identical to a
// fresh rat-lane run, across topologies for the protocols with the heaviest
// per-node state.
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
				trackerEqual(t, "fixed-lane fork vs rat-lane fresh", net, refSkew, fskew)
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
		trackerEqual(t, "fuzzed auto vs rat", net, ratSkew, autoSkew)
	})
}

// TestTrackerRescaleMidRun: a tracker that starts on a rat-lane engine and
// adopts a grid mid-run carries its rational maxima onto the grid as they
// are; a second grid and a 0 handed to it later are ignored, the tracker
// keeping the first. It ends exactly where a rat-lane tracker ends.
func TestTrackerRescaleMidRun(t *testing.T) {
	net, err := gcs.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	proto := gcs.Gradient(gcs.DefaultGradientParams())
	_, ref, _ := laneRun(t, net, proto, scheds, gcs.R(12), gcs.LaneRat)
	_, _, auto := laneRun(t, net, proto, scheds, gcs.R(1), gcs.LaneAuto)
	scale := auto.FixedScale()
	if scale <= 0 {
		t.Fatal("fixed lane never engaged")
	}
	_, skew, eng := laneRun(t, net, proto, scheds, gcs.R(3), gcs.LaneRat)
	if skew.Global().Skew.Sign() <= 0 {
		t.Fatal("no skew before the grid is adopted")
	}
	for i, s := range []int64{scale, 3 * scale, 0} {
		skew.AdoptFixedLane(s)
		if err := eng.RunUntil(gcs.R(3 * int64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	trackerEqual(t, "tracker that adopted a grid mid-run vs rat lane", net, ref, skew)
}

// offGridNode advances its clock on a hardware timer: two ticks of three
// step an eleventh of a unit — off any tick grid the engine detects from the
// schedules and the adversary — and the third jumps to the next integer,
// back on the grid. Nodes start the cycle at different phases, so pair
// maxima leave the grid and are overtaken by on-grid values again.
type offGridNode struct{ k int }

func (n *offGridNode) Init(rt *gcs.Runtime) { rt.SetTimerAtHW(rt.HW().Add(gcs.R(1)), 1) }

func (n *offGridNode) OnTimer(rt *gcs.Runtime, _ int) {
	l := rt.Logical()
	if n.k++; n.k%3 == 0 {
		rt.SetLogical(gcs.R(l.Floor()+1), gcs.R(1))
	} else {
		rt.SetLogical(l.Add(gcs.Frac(1, 11)), gcs.R(1))
	}
	rt.SetTimerAtHW(rt.HW().Add(gcs.R(1)), 1)
}

func (n *offGridNode) OnMessage(*gcs.Runtime, int, gcs.Message) {}

type offGridProtocol struct{}

func (offGridProtocol) Name() string            { return "off-grid" }
func (offGridProtocol) NewNode(id int) gcs.Node { return &offGridNode{k: id} }
func (offGridProtocol) CloneState(n gcs.Node) gcs.Node {
	c := *n.(*offGridNode)
	return &c
}
