package gcs_test

// Fork determinism matrix: an engine forked mid-run and driven to the
// horizon must be byte-identical — action for action, ledger entry for
// ledger entry, metric for metric — to a fresh engine run end to end on the
// same configuration, across line/ring/grid topologies × every protocol in
// the portfolio. The matrix also asserts the trunk is untouched by forking
// (it still matches the fresh run) and that cloned online trackers agree
// with the post-hoc checkers on the forked run, which is the contract the
// prefix-cached search stands on.

import (
	"fmt"
	"testing"

	"gcs"
)

func forkTopologies(t *testing.T) []*gcs.Network {
	t.Helper()
	line, err := gcs.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := gcs.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gcs.Grid2D(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*gcs.Network{line, ring, grid}
}

// forkRun drives an engine with a recorder and skew/validity trackers
// attached from time zero, forking at the given step count (0 = no fork) and
// finishing on the fork. It returns the executed engine, its recorder, and
// its trackers — all belonging to the branch that reached the horizon.
type forkRun struct {
	eng   *gcs.Engine
	rec   *gcs.Recorder
	skew  *gcs.SkewTracker
	valid *gcs.ValidityTracker
}

// execEqual fails unless a and b hold the same actions, the same ledger
// and the same compiled clocks: every node's logical and hardware clock,
// segment by segment.
func execEqual(t *testing.T, label string, a, b *gcs.Execution) {
	t.Helper()
	for _, clock := range []string{"logical", "hardware"} {
		xs, ys := a.Logical, b.Logical
		if clock == "hardware" {
			xs, ys = a.Hardware, b.Hardware
		}
		if len(xs) != len(ys) {
			t.Fatalf("%s: %d %s clocks vs %d", label, len(xs), clock, len(ys))
		}
		for i := range xs {
			x, y := xs[i].Segs(), ys[i].Segs()
			if len(x) != len(y) {
				t.Fatalf("%s: node %d %s clock has %d segments vs %d", label, i, clock, len(x), len(y))
			}
			for k := range x {
				if !x[k].From.Equal(y[k].From) || !x[k].V0.Equal(y[k].V0) || !x[k].Slope.Equal(y[k].Slope) {
					t.Fatalf("%s: node %d %s clock segment %d differs: %+v vs %+v", label, i, clock, k, x[k], y[k])
				}
			}
		}
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("%s: %d actions vs %d", label, len(a.Actions), len(b.Actions))
	}
	for i := range a.Actions {
		x, y := a.Actions[i], b.Actions[i]
		if x.Node != y.Node || x.Kind != y.Kind || x.Peer != y.Peer ||
			x.MsgSeq != y.MsgSeq || x.TimerID != y.TimerID || x.Payload != y.Payload ||
			!x.Real.Equal(y.Real) || !x.HW.Equal(y.HW) {
			t.Fatalf("%s: action %d differs: %+v vs %+v", label, i, x, y)
		}
	}
	if len(a.Ledger) != len(b.Ledger) {
		t.Fatalf("%s: %d ledger entries vs %d", label, len(a.Ledger), len(b.Ledger))
	}
	for i := range a.Ledger {
		x, y := &a.Ledger[i], &b.Ledger[i]
		if x.Key != y.Key || x.Delivered != y.Delivered || x.Dropped != y.Dropped ||
			!x.SendReal.Equal(y.SendReal) || !x.Delay.Equal(y.Delay) ||
			(x.Delivered && !x.RecvReal.Equal(y.RecvReal)) {
			t.Fatalf("%s: ledger entry %d differs: %+v vs %+v", label, i, *x, *y)
		}
	}
}

func TestForkDeterminismMatrix(t *testing.T) {
	dur := gcs.R(12)
	rho := gcs.Frac(1, 2)
	for _, net := range forkTopologies(t) {
		for _, proto := range gcs.AllProtocols() {
			net, proto := net, proto
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
				if err != nil {
					t.Fatal(err)
				}
				adv := gcs.HashAdversary{Seed: 7, Denom: 8}
				build := func() forkRun {
					t.Helper()
					skew, err := gcs.NewSkewTracker(net, scheds)
					if err != nil {
						t.Fatal(err)
					}
					valid := gcs.NewValidityTracker(scheds)
					rec := gcs.NewRecorder(net.N())
					eng, err := gcs.NewEngine(net,
						gcs.WithProtocol(proto),
						gcs.WithAdversary(adv),
						gcs.WithSchedules(scheds),
						gcs.WithRho(rho),
						gcs.WithObservers(rec, skew, valid),
					)
					if err != nil {
						t.Fatal(err)
					}
					return forkRun{eng: eng, rec: rec, skew: skew, valid: valid}
				}

				// Fresh end-to-end run: the reference.
				fresh := build()
				if err := fresh.eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				freshExec, err := fresh.eng.Execution(fresh.rec)
				if err != nil {
					t.Fatal(err)
				}

				// Trunk run: step half the events, fork, finish both branches.
				trunk := build()
				half := fresh.eng.Steps() / 2
				for trunk.eng.Steps() < half {
					ok, err := trunk.eng.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				fork, err := trunk.eng.Fork()
				if err != nil {
					t.Fatal(err)
				}
				frec := trunk.rec.Clone()
				fskew := trunk.skew.Clone()
				fvalid := trunk.valid.Clone()
				fork.Observe(frec, fskew, fvalid)
				if err := fork.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				forkExec, err := fork.Execution(frec)
				if err != nil {
					t.Fatal(err)
				}
				execEqual(t, "fork vs fresh", freshExec, forkExec)
				if fork.Steps() != fresh.eng.Steps() {
					t.Fatalf("fork dispatched %d events, fresh %d", fork.Steps(), fresh.eng.Steps())
				}

				// The trunk is untouched by the fork: finishing it still
				// reproduces the fresh run.
				if err := trunk.eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				trunkExec, err := trunk.eng.Execution(trunk.rec)
				if err != nil {
					t.Fatal(err)
				}
				execEqual(t, "trunk vs fresh", freshExec, trunkExec)

				// Cloned online trackers vs post-hoc checkers on the forked
				// execution.
				if err := fskew.Err(); err != nil {
					t.Fatal(err)
				}
				if g, og := gcs.GlobalSkew(forkExec), fskew.Global(); !og.Skew.Equal(g.Skew) {
					t.Fatalf("cloned tracker global %s vs post-hoc %s", og.Skew, g.Skew)
				}
				if l, ol := gcs.LocalSkew(forkExec), fskew.Local(); !ol.Skew.Equal(l.Skew) {
					t.Fatalf("cloned tracker local %s vs post-hoc %s", ol.Skew, l.Skew)
				}
				perr, oerr := gcs.CheckValidity(forkExec), fvalid.Err()
				if (perr == nil) != (oerr == nil) {
					t.Fatalf("cloned validity %v vs post-hoc %v", oerr, perr)
				}
				// And the two branches' trackers agree with each other.
				if !fresh.skew.Global().Skew.Equal(fskew.Global().Skew) {
					t.Fatalf("fresh tracker global %s vs forked %s", fresh.skew.Global().Skew, fskew.Global().Skew)
				}
			})
		}
	}
}

// TestScheduleSwapForkMatrix: the fork-determinism matrix for mid-run
// schedule surgery — a trunk run under the base schedules, forked at the
// first event at/after a mutated window's start with the mutated schedule
// swapped into the fork (engine and trackers alike), must be byte-identical
// to a fresh engine run end to end under the swapped schedule set, across
// line/ring/grid topologies × every protocol in the portfolio. This is the
// contract rate-window mutants in the prefix-cached search stand on: timer
// events re-derive their firing times from their hardware-clock targets
// through the new schedule, deliveries keep their real times, and nothing
// else moves.
func TestScheduleSwapForkMatrix(t *testing.T) {
	dur := gcs.R(12)
	rho := gcs.Frac(1, 2)
	from, to := gcs.R(4), gcs.R(8)
	// Pin the window to 1+ρ: outside the diverse band below, so the swapped
	// schedule always differs from the base inside [from, to).
	pinned := gcs.R(1).Add(rho)
	for _, net := range forkTopologies(t) {
		for _, proto := range gcs.AllProtocols() {
			net, proto := net, proto
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				base, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
				if err != nil {
					t.Fatal(err)
				}
				node := net.N() - 1
				swapped, err := base[node].ModifyWindow(from, to, func(gcs.Rat) gcs.Rat { return pinned })
				if err != nil {
					t.Fatal(err)
				}
				swappedSet := append([]*gcs.Schedule(nil), base...)
				swappedSet[node] = swapped
				adv := gcs.HashAdversary{Seed: 7, Denom: 8}
				build := func(scheds []*gcs.Schedule) forkRun {
					t.Helper()
					skew, err := gcs.NewSkewTracker(net, scheds)
					if err != nil {
						t.Fatal(err)
					}
					valid := gcs.NewValidityTracker(scheds)
					rec := gcs.NewRecorder(net.N())
					eng, err := gcs.NewEngine(net,
						gcs.WithProtocol(proto),
						gcs.WithAdversary(adv),
						gcs.WithSchedules(scheds),
						gcs.WithRho(rho),
						gcs.WithObservers(rec, skew, valid),
					)
					if err != nil {
						t.Fatal(err)
					}
					return forkRun{eng: eng, rec: rec, skew: skew, valid: valid}
				}

				// Fresh end-to-end run under the swapped set: the reference.
				fresh := build(swappedSet)
				if err := fresh.eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				freshExec, err := fresh.eng.Execution(fresh.rec)
				if err != nil {
					t.Fatal(err)
				}

				// Trunk under the base set to just before the window start —
				// the schedules agree there — then fork and swap.
				trunk := build(base)
				for {
					nt, ok := trunk.eng.NextEventTime()
					if !ok || !nt.Less(from) {
						break
					}
					if _, err := trunk.eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
				fork, err := trunk.eng.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if err := fork.SwapSchedule(node, swapped); err != nil {
					t.Fatal(err)
				}
				frec := trunk.rec.Clone()
				fskew := trunk.skew.Clone()
				if err := fskew.SwapSchedule(node, swapped); err != nil {
					t.Fatal(err)
				}
				fvalid := trunk.valid.Clone()
				if err := fvalid.SwapSchedule(node, swapped); err != nil {
					t.Fatal(err)
				}
				fork.Observe(frec, fskew, fvalid)
				if err := fork.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				forkExec, err := fork.Execution(frec)
				if err != nil {
					t.Fatal(err)
				}
				execEqual(t, "swapped fork vs fresh", freshExec, forkExec)
				if fork.Steps() != fresh.eng.Steps() {
					t.Fatalf("swapped fork dispatched %d events, fresh %d", fork.Steps(), fresh.eng.Steps())
				}

				// The trunk is untouched by the swap on the fork: finishing it
				// under the base set still matches a fresh base-set run.
				baseFresh := build(base)
				if err := baseFresh.eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				baseExec, err := baseFresh.eng.Execution(baseFresh.rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := trunk.eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				trunkExec, err := trunk.eng.Execution(trunk.rec)
				if err != nil {
					t.Fatal(err)
				}
				execEqual(t, "trunk vs fresh base run", baseExec, trunkExec)

				// Swapped online trackers vs post-hoc checkers on the forked
				// execution, and vs the fresh reference's own trackers.
				if err := fskew.Err(); err != nil {
					t.Fatal(err)
				}
				if g, og := gcs.GlobalSkew(forkExec), fskew.Global(); !og.Skew.Equal(g.Skew) {
					t.Fatalf("swapped tracker global %s vs post-hoc %s", og.Skew, g.Skew)
				}
				if l, ol := gcs.LocalSkew(forkExec), fskew.Local(); !ol.Skew.Equal(l.Skew) {
					t.Fatalf("swapped tracker local %s vs post-hoc %s", ol.Skew, l.Skew)
				}
				perr, oerr := gcs.CheckValidity(forkExec), fvalid.Err()
				if (perr == nil) != (oerr == nil) {
					t.Fatalf("swapped validity %v vs post-hoc %v", oerr, perr)
				}
				if !fresh.skew.Global().Skew.Equal(fskew.Global().Skew) {
					t.Fatalf("fresh tracker global %s vs swapped fork %s", fresh.skew.Global().Skew, fskew.Global().Skew)
				}
			})
		}
	}
}

// TestSiblingTrackerClonesShareNoState: two clones of one skew tracker,
// taken between two same-instant declarations while the first declarer's
// right limit is still pending, follow two forks whose runs diverge — one of
// them through a schedule swap on the engine and the tracker — stepped
// alternately with the trunk. Each clone, and the trunk's own tracker, must
// end exactly where a tracker that watched a fresh run of its branch ends:
// any mutable state shared between them would leak one branch into another.
// The cases cover the tick lane, the rat lane, and a swap that leaves the
// tick grid (engine and tracker drop to the rat lane mid-run, the tracker's
// tick-held maxima turning into rationals). The "flushed instant" cases
// clone at a flush that later declarations land on, on both lanes.
func TestSiblingTrackerClonesShareNoState(t *testing.T) {
	// A declaration at a flushed instant rebuilds the instant's left limits
	// from the declarations the tracker saved for the nodes that already
	// declared there: state that the engine-driven cases below rarely read,
	// as an engine flushes only at horizons, after every event up to them.
	// Branch 0 re-declares node 0 at the instant and then moves on, saving a
	// new left declaration for node 0; branch 1 then declares node 1 at the
	// instant and must still read node 0's left limit as L = H.
	for _, scale := range []int64{8, 0} {
		scale := scale
		name := "flushed instant/fixed"
		if scale == 0 {
			name = "flushed instant/rat"
		}
		t.Run(name, func(t *testing.T) {
			net, err := gcs.Line(3)
			if err != nil {
				t.Fatal(err)
			}
			scheds := gcs.ConstantSchedules(net.N(), gcs.R(1))
			// Under rate-1 clocks a declaration makes L(t) = value + t − at.
			decl := func(node int, at, value int64) gcs.Decl {
				return gcs.Decl{Node: node, Real: gcs.R(at), HW0: gcs.R(at), Value: gcs.R(value), Mult: gcs.R(1)}
			}
			branches := [][]gcs.Decl{
				{decl(0, 1, 50), decl(0, 2, 60)},
				{decl(1, 1, 1)},
			}
			trunk := func() *gcs.SkewTracker {
				skew, err := gcs.NewSkewTracker(net, scheds)
				if err != nil {
					t.Fatal(err)
				}
				skew.AdoptFixedLane(scale)
				skew.OnDeclare(decl(0, 1, 5))
				skew.Flush(gcs.R(1))
				return skew
			}
			shared := trunk()
			clones := []*gcs.SkewTracker{shared.Clone(), shared.Clone()}
			for k, decls := range branches {
				for _, d := range decls {
					clones[k].OnDeclare(d)
				}
			}
			for k, decls := range branches {
				ref := trunk()
				for _, d := range decls {
					ref.OnDeclare(d)
				}
				for _, skew := range []*gcs.SkewTracker{ref, clones[k]} {
					skew.Flush(gcs.R(3))
					if err := skew.Err(); err != nil {
						t.Fatal(err)
					}
				}
				trackerEqual(t, fmt.Sprintf("clone on branch %d vs fresh run", k), net, ref, clones[k])
			}
		})
	}

	net, err := gcs.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	dur := gcs.R(12)
	base, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		lane     gcs.Lane
		rate     gcs.Rat
		swapLane string // the swapped fork's lane after the swap
	}{
		{"fixed", gcs.LaneAuto, gcs.Frac(3, 2), "fixed"},
		{"rat", gcs.LaneRat, gcs.Frac(3, 2), "rat"},
		{"off-grid swap", gcs.LaneAuto, gcs.Frac(13, 11), "rat"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			build := func(scheds []*gcs.Schedule, obs ...gcs.Observer) *gcs.Engine {
				t.Helper()
				eng, err := gcs.NewEngine(net,
					gcs.WithProtocol(gcs.MaxGossip(gcs.R(1))),
					gcs.WithAdversary(gcs.HashAdversary{Seed: 7, Denom: 8}),
					gcs.WithSchedules(scheds),
					gcs.WithRho(gcs.Frac(1, 2)),
					gcs.WithObservers(obs...),
					gcs.WithLane(tc.lane),
				)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			fresh := func(scheds []*gcs.Schedule) *gcs.SkewTracker {
				t.Helper()
				skew, err := gcs.NewSkewTracker(net, scheds)
				if err != nil {
					t.Fatal(err)
				}
				if err := build(scheds, skew).RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				return skew
			}

			// A dry run finds the first step that declares at the instant of
			// the previous step's last declaration: the clone point follows
			// that step.
			var (
				declared    bool
				first, last gcs.Rat
			)
			dry := build(base, gcs.ObserverFuncs{Declare: func(d gcs.Decl) {
				if !declared {
					first = d.Real
				}
				declared, last = true, d.Real
			}})
			split, prev, prevOK := 0, gcs.Rat{}, false
			for steps := 1; split == 0; steps++ {
				declared = false
				if ok, err := dry.Step(); err != nil {
					t.Fatal(err)
				} else if !ok {
					t.Fatal("no two consecutive steps declare at one instant")
				}
				if declared && prevOK && first.Equal(prev) {
					split = steps - 1
				}
				prev, prevOK = last, declared
			}

			skew, err := gcs.NewSkewTracker(net, base)
			if err != nil {
				t.Fatal(err)
			}
			trunk := build(base, skew)
			for i := 0; i < split; i++ {
				if _, err := trunk.Step(); err != nil {
					t.Fatal(err)
				}
			}
			node := net.N() - 1
			from := gcs.R(trunk.Now().Floor() + 1)
			swapped, err := base[node].ModifyWindow(from, from.Add(gcs.R(4)), func(gcs.Rat) gcs.Rat { return tc.rate })
			if err != nil {
				t.Fatal(err)
			}
			swappedSet := append([]*gcs.Schedule(nil), base...)
			swappedSet[node] = swapped

			plainSkew, swapSkew := skew.Clone(), skew.Clone()
			plain, err := trunk.Fork()
			if err != nil {
				t.Fatal(err)
			}
			swap, err := trunk.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if err := swap.SwapSchedule(node, swapped); err != nil {
				t.Fatal(err)
			}
			if err := swapSkew.SwapSchedule(node, swapped); err != nil {
				t.Fatal(err)
			}
			if swap.TimeLane() != tc.swapLane {
				t.Fatalf("swapped fork on the %s lane, want %s", swap.TimeLane(), tc.swapLane)
			}
			plain.Observe(plainSkew)
			swap.Observe(swapSkew)
			engines := []*gcs.Engine{trunk, plain, swap}
			for progressed := true; progressed; {
				progressed = false
				for _, eng := range engines {
					if nt, ok := eng.NextEventTime(); ok && nt.LessEq(dur) {
						if _, err := eng.Step(); err != nil {
							t.Fatal(err)
						}
						progressed = true
					}
				}
			}
			for _, eng := range engines {
				if err := eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
			}
			baseRef, swapRef := fresh(base), fresh(swappedSet)
			diverged := false
			net.Pairs(func(i, j int) {
				diverged = diverged || baseRef.Pair(i, j).Skew.Key() != swapRef.Pair(i, j).Skew.Key()
			})
			if !diverged {
				t.Fatal("the swapped branch's skew never departs from the base branch's")
			}
			trackerEqual(t, "trunk tracker vs fresh base run", net, baseRef, skew)
			trackerEqual(t, "clone on the plain fork vs fresh base run", net, baseRef, plainSkew)
			trackerEqual(t, "clone on the swapped fork vs fresh swapped run", net, swapRef, swapSkew)
		})
	}
}

// TestStatefulAdversaryForkMatrix: the fork-determinism matrix for stateful
// adversaries — an adaptive adversary (the online §2 scheduler) driven on a
// fork, and on the trunk after forking, must be byte-identical to two
// independent end-to-end runs, across topologies × protocols. Fork clones
// the adversary's state at the fork point (engine.StatefulAdversary), so
// the trunk's trigger and the fork's trigger fire independently; sharing
// state would desynchronize at least one branch from the fresh reference.
func TestStatefulAdversaryForkMatrix(t *testing.T) {
	dur := gcs.R(12)
	rho := gcs.Frac(1, 2)
	two, err := gcs.TwoNode(gcs.R(2))
	if err != nil {
		t.Fatal(err)
	}
	line, err := gcs.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*gcs.Network{two, line} {
		for _, proto := range gcs.AllProtocols() {
			net, proto := net, proto
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				// Source on the fast band so the adaptive trigger has drift to
				// observe; a mid-run threshold so both branches cross it after
				// the fork point.
				scheds := gcs.ConstantSchedules(net.N(), gcs.R(1))
				scheds[0] = gcs.ConstantClock(gcs.R(1).Add(rho.Div(gcs.R(2))))
				threshold := gcs.AutoThreshold(rho, dur)
				build := func() (*gcs.Engine, *gcs.Recorder, *gcs.AdaptiveScheduler) {
					t.Helper()
					adv, err := gcs.NewAdaptiveScheduler(net, 0, net.N()-1, threshold)
					if err != nil {
						t.Fatal(err)
					}
					rec := gcs.NewRecorder(net.N())
					eng, err := gcs.NewEngine(net,
						gcs.WithProtocol(proto),
						gcs.WithAdversary(adv),
						gcs.WithSchedules(scheds),
						gcs.WithRho(rho),
						gcs.WithObservers(rec),
					)
					if err != nil {
						t.Fatal(err)
					}
					return eng, rec, adv
				}
				finish := func(eng *gcs.Engine, rec *gcs.Recorder) *gcs.Execution {
					t.Helper()
					if err := eng.RunUntil(dur); err != nil {
						t.Fatal(err)
					}
					exec, err := eng.Execution(rec)
					if err != nil {
						t.Fatal(err)
					}
					return exec
				}

				// Two independent end-to-end runs: the reference, twice (the
				// adversary is deterministic in its observations).
				engA, recA, _ := build()
				execA := finish(engA, recA)
				engB, recB, _ := build()
				execB := finish(engB, recB)
				execEqual(t, "independent runs", execA, execB)

				// Trunk to the half-way point, fork, finish both branches.
				trunk, trec, tadv := build()
				for trunk.Steps() < engA.Steps()/2 {
					ok, err := trunk.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				fork, err := trunk.Fork()
				if err != nil {
					t.Fatal(err)
				}
				fadv, ok := fork.Adversary().(*gcs.AdaptiveScheduler)
				if !ok || fadv == tadv {
					t.Fatalf("fork adversary %T shares the trunk's state", fork.Adversary())
				}
				frec := trec.Clone()
				fork.Observe(frec)
				execFork := finish(fork, frec)
				execEqual(t, "fork vs independent run", execA, execFork)
				execTrunk := finish(trunk, trec)
				execEqual(t, "trunk vs independent run", execA, execTrunk)

				// Both branches observed the same (byte-identical) execution,
				// so their triggers must agree.
				tAt, tOK := tadv.Released()
				fAt, fOK := fadv.Released()
				if tOK != fOK || (tOK && !tAt.Equal(fAt)) {
					t.Fatalf("trunk release (%s, %v) differs from fork release (%s, %v)", tAt, tOK, fAt, fOK)
				}
			})
		}
	}
}

// TestFaultAdversaryForkMatrix: the fork-determinism matrix for fault
// injection — a FaultAdversary (crash windows, probabilistic loss, a
// transient partition, edge churn) layered over the hash adversary must make
// a fork driven to the horizon, and the trunk finished after forking,
// byte-identical to two independent end-to-end runs, dropped messages
// included (execEqual compares the Dropped flag per ledger entry). One loss
// case additionally rides inside a ScriptedAdversary fallback — the shape
// the prefix-cached search builds — so the drop hook provably survives
// wrapper chains via Unwrap. Every case asserts at least one message was
// actually dropped, so none of this passes vacuously.
func TestFaultAdversaryForkMatrix(t *testing.T) {
	dur := gcs.R(12)
	rho := gcs.Frac(1, 2)
	line, err := gcs.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := gcs.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		name     string
		model    gcs.FaultModel
		scripted bool // wrap the fault layer in a ScriptedAdversary fallback
	}{
		{"crash", gcs.FaultModel{Crash: map[int][]gcs.FaultWindow{
			1: {{From: gcs.R(3), To: gcs.R(6)}},
			3: {{From: gcs.R(7), To: gcs.R(9)}},
		}}, false},
		{"loss", gcs.FaultModel{LossNum: 1, LossDen: 4, LossSeed: 99}, false},
		{"loss-scripted", gcs.FaultModel{LossNum: 1, LossDen: 4, LossSeed: 99}, true},
		{"partition", gcs.FaultModel{Partitions: []gcs.NetPartition{{
			Window: gcs.FaultWindow{From: gcs.R(4), To: gcs.R(8)},
			Side:   []bool{true, true},
		}}}, false},
		{"churn", gcs.FaultModel{ChurnNum: 1, ChurnDen: 4, ChurnPeriod: gcs.R(2), ChurnSeed: 5}, false},
	}
	protos := []gcs.Protocol{gcs.MaxGossip(gcs.R(1)), gcs.Gradient(gcs.DefaultGradientParams())}
	for _, net := range []*gcs.Network{line, ring} {
		for _, fc := range faults {
			for _, proto := range protos {
				net, fc, proto := net, fc, proto
				t.Run(fmt.Sprintf("%s/%s/%s", net.Name(), fc.name, proto.Name()), func(t *testing.T) {
					scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
					if err != nil {
						t.Fatal(err)
					}
					var adv gcs.Adversary = gcs.FaultAdversary{
						Model: fc.model,
						Inner: gcs.HashAdversary{Seed: 7, Denom: 8},
					}
					if fc.scripted {
						adv = gcs.ScriptedAdversary{Fallback: adv}
					}
					build := func() (*gcs.Engine, *gcs.Recorder) {
						t.Helper()
						rec := gcs.NewRecorder(net.N())
						eng, err := gcs.NewEngine(net,
							gcs.WithProtocol(proto),
							gcs.WithAdversary(adv),
							gcs.WithSchedules(scheds),
							gcs.WithRho(rho),
							gcs.WithObservers(rec),
						)
						if err != nil {
							t.Fatal(err)
						}
						return eng, rec
					}
					finish := func(eng *gcs.Engine, rec *gcs.Recorder) *gcs.Execution {
						t.Helper()
						if err := eng.RunUntil(dur); err != nil {
							t.Fatal(err)
						}
						exec, err := eng.Execution(rec)
						if err != nil {
							t.Fatal(err)
						}
						return exec
					}

					// Two independent end-to-end runs: the reference, twice.
					engA, recA := build()
					execA := finish(engA, recA)
					engB, recB := build()
					execB := finish(engB, recB)
					execEqual(t, "independent runs", execA, execB)

					// The fault model must have bitten, or the case tests
					// nothing.
					dropped := 0
					for _, rec := range execA.Ledger {
						if rec.Dropped {
							if rec.Delivered {
								t.Fatalf("ledger entry both dropped and delivered: %+v", rec)
							}
							dropped++
						}
					}
					if dropped == 0 {
						t.Fatalf("fault model %q dropped no messages; the case is vacuous", fc.name)
					}

					// Trunk to the half-way point, fork, finish both branches.
					trunk, trec := build()
					for trunk.Steps() < engA.Steps()/2 {
						ok, err := trunk.Step()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
					}
					fork, err := trunk.Fork()
					if err != nil {
						t.Fatal(err)
					}
					frec := trec.Clone()
					fork.Observe(frec)
					execFork := finish(fork, frec)
					execEqual(t, "fork vs independent run", execA, execFork)
					execTrunk := finish(trunk, trec)
					execEqual(t, "trunk vs independent run", execA, execTrunk)
				})
			}
		}
	}
}

// TestFaultAdversaryStatefulInnerFork: forking a FaultAdversary whose inner
// adversary is stateful (the adaptive scheduler) must clone the inner state —
// the fault layer itself is immutable and shared, but a shared scheduler
// would let one branch's trigger fire on the other branch's observations.
func TestFaultAdversaryStatefulInnerFork(t *testing.T) {
	dur := gcs.R(12)
	rho := gcs.Frac(1, 2)
	net, err := gcs.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	proto := gcs.MaxGossip(gcs.R(1))
	model := gcs.FaultModel{Crash: map[int][]gcs.FaultWindow{
		1: {{From: gcs.R(3), To: gcs.R(5)}},
	}}
	scheds := gcs.ConstantSchedules(net.N(), gcs.R(1))
	scheds[0] = gcs.ConstantClock(gcs.R(1).Add(rho.Div(gcs.R(2))))
	threshold := gcs.AutoThreshold(rho, dur)
	build := func() (*gcs.Engine, *gcs.Recorder, *gcs.AdaptiveScheduler) {
		t.Helper()
		inner, err := gcs.NewAdaptiveScheduler(net, 0, net.N()-1, threshold)
		if err != nil {
			t.Fatal(err)
		}
		rec := gcs.NewRecorder(net.N())
		eng, err := gcs.NewEngine(net,
			gcs.WithProtocol(proto),
			gcs.WithAdversary(gcs.FaultAdversary{Model: model, Inner: inner}),
			gcs.WithSchedules(scheds),
			gcs.WithRho(rho),
			gcs.WithObservers(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng, rec, inner
	}
	finish := func(eng *gcs.Engine, rec *gcs.Recorder) *gcs.Execution {
		t.Helper()
		if err := eng.RunUntil(dur); err != nil {
			t.Fatal(err)
		}
		exec, err := eng.Execution(rec)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}

	engA, recA, _ := build()
	execA := finish(engA, recA)

	trunk, trec, tinner := build()
	for trunk.Steps() < engA.Steps()/2 {
		ok, err := trunk.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	fork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fadv, ok := fork.Adversary().(gcs.FaultAdversary)
	if !ok {
		t.Fatalf("fork adversary is %T, want FaultAdversary", fork.Adversary())
	}
	finner, ok := fadv.Inner.(*gcs.AdaptiveScheduler)
	if !ok || finner == tinner {
		t.Fatalf("fork's inner adversary %T shares the trunk's state", fadv.Inner)
	}
	frec := trec.Clone()
	fork.Observe(frec)
	execEqual(t, "fork vs independent run", execA, finish(fork, frec))
	execEqual(t, "trunk vs independent run", execA, finish(trunk, trec))
}

// TestForkDivergence: a fork rebound to a different adversary diverges from
// the trunk without disturbing it — the branching the prefix-cached search
// performs — and matches a fresh run under a script that switches delays at
// the same decision boundary.
func TestForkDivergence(t *testing.T) {
	net, err := gcs.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	dur := gcs.R(10)
	proto := gcs.MaxGossip(gcs.R(1))
	build := func(adv gcs.Adversary) (*gcs.Engine, *gcs.DecisionLog) {
		t.Helper()
		log := gcs.NewDecisionLog(net)
		eng, err := gcs.NewEngine(net,
			gcs.WithProtocol(proto),
			gcs.WithAdversary(adv),
			gcs.WithRho(gcs.Frac(1, 2)),
			gcs.WithObservers(log),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng, log
	}

	trunk, tlog := build(gcs.Midpoint())
	for i := 0; i < 8; i++ {
		if _, err := trunk.Step(); err != nil {
			t.Fatal(err)
		}
	}
	prefix := tlog.Len()
	fork, err := trunk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.SetAdversary(gcs.FractionAdversary{Frac: gcs.R(1)}); err != nil {
		t.Fatal(err)
	}
	flog := tlog.Clone()
	fork.Observe(flog)
	if err := fork.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	if err := trunk.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	if flog.Len() <= prefix {
		t.Fatal("fork made no decisions after the fork point")
	}
	// Prefix decisions are shared; the fork's post-fork decisions take the
	// full bound while the trunk keeps the midpoint.
	half, one := gcs.Frac(1, 2), gcs.R(1)
	for i, d := range flog.Decisions() {
		want := one
		if i < prefix {
			want = tlog.Decisions()[i].Delay
		}
		if i >= prefix {
			if !d.Delay.Equal(want.Mul(d.Bound)) {
				t.Fatalf("fork decision %d delay %s, want bound %s", i, d.Delay, d.Bound)
			}
			continue
		}
		if !d.Delay.Equal(want) {
			t.Fatalf("fork prefix decision %d delay %s, want trunk's %s", i, d.Delay, want)
		}
	}
	for _, d := range tlog.Decisions() {
		if !d.Delay.Equal(half.Mul(d.Bound)) {
			t.Fatalf("trunk decision %v delay %s drifted off the midpoint %s", d.Key, d.Delay, half.Mul(d.Bound))
		}
	}

	// The fork's whole run equals a fresh run under its realized script.
	replay, rlog := build(gcs.ScriptedAdversary{Delays: flog.Script()})
	if err := replay.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	if rlog.Len() != flog.Len() || replay.Steps() != fork.Steps() {
		t.Fatalf("replay: %d decisions / %d steps, fork: %d / %d",
			rlog.Len(), replay.Steps(), flog.Len(), fork.Steps())
	}
	for i, d := range rlog.Decisions() {
		f := flog.Decisions()[i]
		if d.Key != f.Key || !d.Delay.Equal(f.Delay) || !d.SendReal.Equal(f.SendReal) || d.Event != f.Event {
			t.Fatalf("replay decision %d differs: %+v vs %+v", i, d, f)
		}
	}
}
