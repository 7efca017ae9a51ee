package gcs_test

// Determinism tests for the streaming engine: a streamed run's observer
// event sequence must match the recorded *Execution action for action on
// identical configurations, and the online trackers must reproduce the
// post-hoc metrics exactly, across line/ring/grid topologies × every
// protocol in AllProtocols.

import (
	"fmt"
	"reflect"
	"testing"

	"gcs"
)

// actionCollector buffers the streamed action sequence.
type actionCollector struct {
	actions []gcs.Action
}

func (c *actionCollector) OnAction(a gcs.Action)   { c.actions = append(c.actions, a) }
func (c *actionCollector) OnSend(gcs.MsgRecord)    {}
func (c *actionCollector) OnDeliver(gcs.MsgRecord) {}

func streamTopologies(t *testing.T) []*gcs.Network {
	t.Helper()
	line, err := gcs.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := gcs.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gcs.Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*gcs.Network{line, ring, grid}
}

func TestStreamMatchesRecorded(t *testing.T) {
	rho := gcs.Frac(1, 2)
	dur := gcs.R(24)
	f := gcs.LinearGradient(gcs.R(2), gcs.Frac(1, 2))
	for _, net := range streamTopologies(t) {
		n := net.N()
		scheds, err := gcs.DiverseSchedules(n, gcs.R(1), gcs.Frac(5, 4), 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range gcs.AllProtocols() {
			net, proto, scheds := net, proto, scheds
			t.Run(fmt.Sprintf("%s/%s", net.Name(), proto.Name()), func(t *testing.T) {
				adv := gcs.HashAdversary{Seed: 5, Denom: 8}
				exec, err := gcs.Run(gcs.Config{
					Net: net, Schedules: scheds, Adversary: adv,
					Protocol: proto, Duration: dur, Rho: rho,
				})
				if err != nil {
					t.Fatal(err)
				}

				eng, err := gcs.NewEngine(net,
					gcs.WithProtocol(proto),
					gcs.WithAdversary(adv),
					gcs.WithSchedules(scheds),
					gcs.WithRho(rho),
				)
				if err != nil {
					t.Fatal(err)
				}
				col := &actionCollector{}
				skew, err := gcs.NewSkewTracker(net, scheds)
				if err != nil {
					t.Fatal(err)
				}
				grad, err := gcs.NewGradientTracker(net, scheds, f)
				if err != nil {
					t.Fatal(err)
				}
				valid := gcs.NewValidityTracker(scheds)
				eng.Observe(col, skew, grad, valid)
				if err := eng.RunUntil(dur); err != nil {
					t.Fatal(err)
				}
				if err := skew.Err(); err != nil {
					t.Fatal(err)
				}

				// The streamed action sequence is the recorded trace.
				if len(col.actions) != len(exec.Actions) {
					t.Fatalf("streamed %d actions, recorded %d", len(col.actions), len(exec.Actions))
				}
				for i := range col.actions {
					if col.actions[i] != exec.Actions[i] {
						t.Fatalf("action %d differs:\n  streamed: %+v\n  recorded: %+v",
							i, col.actions[i], exec.Actions[i])
					}
				}

				// Online metrics equal the post-hoc checkers exactly.
				if g := gcs.GlobalSkew(exec); !skew.Global().Skew.Equal(g.Skew) {
					t.Errorf("global skew: online %s vs recorded %s", skew.Global().Skew, g.Skew)
				}
				if l := gcs.LocalSkew(exec); !skew.Local().Skew.Equal(l.Skew) {
					t.Errorf("local skew: online %s vs recorded %s", skew.Local().Skew, l.Skew)
				}
				rep := gcs.CheckGradient(exec, f)
				orep := grad.Report()
				if rep.OK != orep.OK || !rep.Worst.Skew.Equal(orep.Worst.Skew) {
					t.Errorf("gradient: online OK=%v worst=%s vs recorded OK=%v worst=%s",
						orep.OK, orep.Worst.Skew, rep.OK, rep.Worst.Skew)
				}
				if perr, oerr := gcs.CheckValidity(exec), valid.Err(); (perr == nil) != (oerr == nil) {
					t.Errorf("validity: online %v vs recorded %v", oerr, perr)
				}
			})
		}
	}
}

// TestRunUntilEarlyStop: stopping an engine at t < duration yields an
// execution byte-identical to a batch run with Duration = t, and resuming
// the same engine to the full duration converges to the full batch run.
func TestRunUntilEarlyStop(t *testing.T) {
	net, err := gcs.Line(7)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := gcs.DiverseSchedules(7, gcs.R(1), gcs.Frac(5, 4), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rho := gcs.Frac(1, 2)
	adv := gcs.HashAdversary{Seed: 2, Denom: 8}
	proto := gcs.Gradient(gcs.DefaultGradientParams())
	mkCfg := func(dur gcs.Rat) gcs.Config {
		return gcs.Config{Net: net, Schedules: scheds, Adversary: adv,
			Protocol: proto, Duration: dur, Rho: rho}
	}
	t1, t2 := gcs.R(10), gcs.R(25)
	pre, err := gcs.Run(mkCfg(t1))
	if err != nil {
		t.Fatal(err)
	}
	full, err := gcs.Run(mkCfg(t2))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := gcs.NewEngine(net, gcs.WithProtocol(proto), gcs.WithAdversary(adv),
		gcs.WithSchedules(scheds), gcs.WithRho(rho))
	if err != nil {
		t.Fatal(err)
	}
	rec := gcs.NewRecorder(net.N())
	eng.Observe(rec)
	if err := eng.RunUntil(t1); err != nil {
		t.Fatal(err)
	}
	part, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Duration.Equal(t1) {
		t.Fatalf("partial duration = %s, want %s", part.Duration, t1)
	}
	if len(part.Actions) != len(pre.Actions) {
		t.Fatalf("partial has %d actions, batch run to %s has %d", len(part.Actions), t1, len(pre.Actions))
	}
	for i := range part.Actions {
		if part.Actions[i] != pre.Actions[i] {
			t.Fatalf("partial action %d differs: %+v vs %+v", i, part.Actions[i], pre.Actions[i])
		}
	}
	if !reflect.DeepEqual(part.Ledger, pre.Ledger) {
		t.Fatal("partial ledger differs from batch run")
	}
	if err := gcs.PrefixEqual(part, pre, t1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.N(); i++ {
		if !part.LogicalAt(i, t1).Equal(pre.LogicalAt(i, t1)) {
			t.Fatalf("node %d logical clock differs at %s", i, t1)
		}
	}

	// Resume to the full horizon: identical to the uninterrupted batch run.
	if err := eng.RunUntil(t2); err != nil {
		t.Fatal(err)
	}
	resumed, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Actions) != len(full.Actions) {
		t.Fatalf("resumed has %d actions, full run has %d", len(resumed.Actions), len(full.Actions))
	}
	for i := range resumed.Actions {
		if resumed.Actions[i] != full.Actions[i] {
			t.Fatalf("resumed action %d differs: %+v vs %+v", i, resumed.Actions[i], full.Actions[i])
		}
	}
	if !reflect.DeepEqual(resumed.Ledger, full.Ledger) {
		t.Fatal("resumed ledger differs from full run")
	}
	if err := gcs.PrefixEqual(resumed, full, t2); err != nil {
		t.Fatal(err)
	}

	// The mid-run snapshot is stable: resuming the engine must not have
	// mutated it (Execution shares the recorder's append-only buffers with
	// capacity capped at length, and copies the ledger).
	if len(part.Actions) != len(pre.Actions) || !reflect.DeepEqual(part.Ledger, pre.Ledger) {
		t.Fatal("mid-run snapshot mutated by resuming the engine")
	}
	for i := 0; i < net.N(); i++ {
		if len(part.PerNode[i]) != len(pre.PerNode[i]) {
			t.Fatalf("node %d snapshot per-node index mutated by resume", i)
		}
		for _, a := range part.NodeActions(i) {
			if a.Real.Greater(t1) {
				t.Fatalf("node %d snapshot contains post-%s action", i, t1)
			}
		}
	}
}

// TestStepEarlyStopOnGradientViolation drives the engine event by event and
// halts the moment the gradient tracker reports a violation — the scenario
// shape the streaming API unlocks (no trace, no full-duration run).
func TestStepEarlyStopOnGradientViolation(t *testing.T) {
	net, err := gcs.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	rho := gcs.Frac(1, 2)
	scheds := gcs.ConstantSchedules(n, gcs.R(1))
	scheds[0] = gcs.ConstantClock(gcs.R(1).Add(rho.Div(gcs.R(2))))
	grad, err := gcs.NewGradientTracker(net, scheds, gcs.LinearGradient(gcs.Frac(1, 4), gcs.Frac(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gcs.NewEngine(net,
		gcs.WithProtocol(gcs.MaxGossip(gcs.R(1))),
		gcs.WithAdversary(gcs.Midpoint()),
		gcs.WithSchedules(scheds),
		gcs.WithRho(rho),
		gcs.WithObservers(grad),
	)
	if err != nil {
		t.Fatal(err)
	}
	const maxSteps = 200000
	for steps := 0; !grad.Violated(); steps++ {
		if steps > maxSteps {
			t.Fatal("no violation within step budget")
		}
		ok, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("engine went idle before violating the tight gradient bound")
		}
	}
	v, _ := grad.Violation()
	if !v.Skew.Greater(v.Allowed) {
		t.Errorf("violation skew %s not above allowed %s", v.Skew, v.Allowed)
	}
	// The run stopped at the violation instant, far before any fixed
	// horizon: the engine's covered time is exactly where the event stream
	// stands.
	if eng.Horizon().Greater(gcs.R(64)) {
		t.Errorf("ran to %s before detecting a violation expected almost immediately", eng.Horizon())
	}
}
