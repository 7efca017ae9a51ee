package core

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// gossipNode floods its logical value to neighbors every period and adopts
// greater received values — enough protocol dynamics (jumps, timers, relays)
// to stress the trackers.
type gossipNode struct {
	period rat.Rat
}

func (n *gossipNode) Init(rt *engine.Runtime) { rt.SetTimerAtHW(rt.HW().Add(n.period), 1) }

func (n *gossipNode) OnTimer(rt *engine.Runtime, _ int) {
	for _, j := range rt.Neighbors() {
		rt.Send(j, valMsg{Val: rt.Logical()})
	}
	rt.SetTimerAtHW(rt.HW().Add(n.period), 1)
}

func (n *gossipNode) OnMessage(rt *engine.Runtime, _ int, msg engine.Message) {
	if m, ok := msg.(valMsg); ok && m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, rat.FromInt(1))
	}
}

type valMsg struct{ Val rat.Rat }

func (m valMsg) MsgString() string { return "v:" + m.Val.String() }

type gossipProtocol struct{ period rat.Rat }

func (p gossipProtocol) Name() string               { return "test-gossip" }
func (p gossipProtocol) NewNode(id int) engine.Node { return &gossipNode{period: p.period} }
func (p gossipProtocol) CloneState(n engine.Node) engine.Node {
	c := *n.(*gossipNode)
	return &c
}

// runBoth executes cfg twice — once recorded, once streamed with trackers —
// and returns the recorded execution plus the online trackers after the
// final horizon.
func runBoth(t *testing.T, cfg engine.Config, f GradientFunc) (*trace.Execution, *SkewTracker, *GradientTracker, *ValidityTracker) {
	t.Helper()
	exec, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(cfg.Net,
		engine.WithProtocol(cfg.Protocol),
		engine.WithAdversary(cfg.Adversary),
		engine.WithSchedules(cfg.Schedules),
		engine.WithRho(cfg.Rho),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSkewTracker(cfg.Net, cfg.Schedules)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := NewGradientTracker(cfg.Net, cfg.Schedules, f)
	if err != nil {
		t.Fatal(err)
	}
	vt := NewValidityTracker(cfg.Schedules)
	eng.Observe(st, gt, vt)
	if err := eng.RunUntil(cfg.Duration); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return exec, st, gt, vt
}

func checkTrackersMatch(t *testing.T, exec *trace.Execution, st *SkewTracker, gt *GradientTracker, vt *ValidityTracker, f GradientFunc) {
	t.Helper()
	if g, og := GlobalSkew(exec), st.Global(); !og.Skew.Equal(g.Skew) {
		t.Errorf("global skew: online %s (pair %d,%d at %s) vs recorded %s (pair %d,%d at %s)",
			og.Skew, og.I, og.J, og.At, g.Skew, g.I, g.J, g.At)
	}
	if l, ol := LocalSkew(exec), st.Local(); !ol.Skew.Equal(l.Skew) {
		t.Errorf("local skew: online %s vs recorded %s", ol.Skew, l.Skew)
	}
	exec.Net.Pairs(func(i, j int) {
		want := exec.MaxAbsSkew(i, j, rat.Rat{}, exec.Duration).Val
		if got := st.Pair(i, j).Skew; !got.Equal(want) {
			t.Errorf("pair (%d,%d): online %s vs recorded %s", i, j, got, want)
		}
	})
	prof, oprof := SkewProfile(exec), st.Profile()
	if len(prof) != len(oprof) {
		t.Fatalf("profile lengths: online %d vs recorded %d", len(oprof), len(prof))
	}
	for k := range prof {
		if !prof[k].Dist.Equal(oprof[k].Dist) || prof[k].Pairs != oprof[k].Pairs || !prof[k].MaxSkew.Equal(oprof[k].MaxSkew) {
			t.Errorf("profile[%d]: online %+v vs recorded %+v", k, oprof[k], prof[k])
		}
	}
	rep, orep := CheckGradient(exec, f), gt.Report()
	if rep.OK != orep.OK || rep.Checked != orep.Checked {
		t.Errorf("gradient: online OK=%v checked=%d vs recorded OK=%v checked=%d",
			orep.OK, orep.Checked, rep.OK, rep.Checked)
	}
	if rep.Worst.I != orep.Worst.I || rep.Worst.J != orep.Worst.J || !rep.Worst.Skew.Equal(orep.Worst.Skew) {
		t.Errorf("gradient worst: online (%d,%d)=%s vs recorded (%d,%d)=%s",
			orep.Worst.I, orep.Worst.J, orep.Worst.Skew, rep.Worst.I, rep.Worst.J, rep.Worst.Skew)
	}
	perr, oerr := CheckValidity(exec), vt.Err()
	if (perr == nil) != (oerr == nil) {
		t.Errorf("validity: online %v vs recorded %v", oerr, perr)
	}
	if gt.Violated() == rep.OK {
		t.Errorf("Violated()=%v inconsistent with gradient OK=%v", gt.Violated(), rep.OK)
	}
}

func TestOnlineMatchesPostHocConstantRates(t *testing.T) {
	net, err := network.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(rat.MustFrac(5, 4)),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.MustFrac(9, 8)),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.MustFrac(7, 8)),
		clock.Constant(rat.FromInt(1)),
	}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.HashAdversary{Seed: 11, Denom: 8},
		Protocol:  gossipProtocol{period: rat.FromInt(1)},
		Duration:  rat.FromInt(16),
		Rho:       rat.MustFrac(1, 2),
	}
	f := LinearGradient(rat.FromInt(1), rat.MustFrac(1, 2))
	exec, st, gt, vt := runBoth(t, cfg, f)
	checkTrackersMatch(t, exec, st, gt, vt, f)
}

// TestZeroSkewWitnessMatchesPostHoc: on runs whose skew never rises above
// 0, the trackers name the same witness as the post-hoc functions — the
// first pair for the global skew, the first distance-1 pair for the local
// one, and the zero PairSkew where there is no such pair — not pair (0,0).
// The grid cell is llw on 16 nodes under the max adversary with every rate
// 1; the two-node cell, at distance 2, has no distance-1 pair.
func TestZeroSkewWitnessMatchesPostHoc(t *testing.T) {
	grid, err := network.SquareGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	twoNode, err := network.TwoNode(rat.FromInt(2))
	if err != nil {
		t.Fatal(err)
	}
	maxAdv, err := engine.AdversaryByName("max", 0)
	if err != nil {
		t.Fatal(err)
	}
	llw, err := algorithms.ByName("llw")
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*network.Network{grid, twoNode} {
		scheds := make([]*clock.Schedule, net.N())
		for i := range scheds {
			scheds[i] = clock.Constant(rat.FromInt(1))
		}
		cfg := engine.Config{
			Net:       net,
			Schedules: scheds,
			Adversary: maxAdv,
			Protocol:  llw,
			Duration:  rat.FromInt(25),
			Rho:       rat.MustFrac(1, 4),
		}
		exec, st, _, _ := runBoth(t, cfg, LinearGradient(rat.FromInt(1), rat.MustFrac(1, 2)))
		for _, c := range []struct {
			name         string
			online, post PairSkew
		}{
			{"global", st.Global(), GlobalSkew(exec)},
			{"local", st.Local(), LocalSkew(exec)},
		} {
			if c.post.Skew.Sign() != 0 {
				t.Fatalf("%s: %s skew %s, want a run whose skew stays 0", net.Name(), c.name, c.post.Skew)
			}
			if c.online.I != c.post.I || c.online.J != c.post.J || !c.online.Dist.Equal(c.post.Dist) ||
				!c.online.Skew.Equal(c.post.Skew) || !c.online.At.Equal(c.post.At) {
				t.Errorf("%s: %s witness online %+v, recorded %+v", net.Name(), c.name, c.online, c.post)
			}
		}
	}
}

// TestOnlineMatchesPostHocRateBreaks exercises the merged rate-breakpoint
// path: skew maxima attained at interior hardware rate changes, between
// declarations, must be caught online.
func TestOnlineMatchesPostHocRateBreaks(t *testing.T) {
	net, err := network.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(segs ...clock.RateSeg) *clock.Schedule {
		s, err := clock.FromRates(segs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scheds := []*clock.Schedule{
		mk(clock.RateSeg{At: rat.Rat{}, Rate: rat.MustFrac(3, 2)},
			clock.RateSeg{At: rat.FromInt(5), Rate: rat.MustFrac(1, 2)},
			clock.RateSeg{At: rat.FromInt(9), Rate: rat.FromInt(1)}),
		mk(clock.RateSeg{At: rat.Rat{}, Rate: rat.MustFrac(1, 2)},
			clock.RateSeg{At: rat.MustFrac(7, 2), Rate: rat.MustFrac(3, 2)}),
		clock.Constant(rat.FromInt(1)),
		mk(clock.RateSeg{At: rat.Rat{}, Rate: rat.FromInt(1)},
			clock.RateSeg{At: rat.FromInt(5), Rate: rat.MustFrac(3, 2)},
			clock.RateSeg{At: rat.FromInt(6), Rate: rat.MustFrac(1, 2)}),
	}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  gossipProtocol{period: rat.FromInt(2)},
		Duration:  rat.FromInt(12),
		Rho:       rat.MustFrac(1, 2),
	}
	f := LinearGradient(rat.FromInt(2), rat.FromInt(1))
	exec, st, gt, vt := runBoth(t, cfg, f)
	checkTrackersMatch(t, exec, st, gt, vt, f)
}

// redeclareNode declares twice at the same instant — first a bogus downward
// value, then the corrected one. The compiled clock only ever contains the
// final same-instant declaration, so neither checker may flag it.
type redeclareNode struct{ id int }

func (n *redeclareNode) Init(rt *engine.Runtime) {
	if n.id == 0 {
		rt.SetTimerAtHW(rat.FromInt(2), 1)
	}
}

func (n *redeclareNode) OnTimer(rt *engine.Runtime, _ int) {
	l := rt.Logical()
	rt.SetLogical(l.Sub(rat.FromInt(5)), rat.FromInt(1)) // transient: replaced below
	rt.SetLogical(l.Add(rat.FromInt(1)), rat.FromInt(1))
}

func (n *redeclareNode) OnMessage(*engine.Runtime, int, engine.Message) {}

type redeclareProtocol struct{}

func (redeclareProtocol) Name() string               { return "redeclare" }
func (redeclareProtocol) NewNode(id int) engine.Node { return &redeclareNode{id: id} }
func (redeclareProtocol) CloneState(n engine.Node) engine.Node {
	c := *n.(*redeclareNode)
	return &c
}

func TestSameInstantRedeclarationCollapses(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))}
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  redeclareProtocol{},
		Duration:  rat.FromInt(6),
		Rho:       rat.MustFrac(1, 2),
	}
	f := LinearGradient(rat.FromInt(2), rat.FromInt(1))
	exec, st, gt, vt := runBoth(t, cfg, f)
	if err := CheckValidity(exec); err != nil {
		t.Fatalf("recorded execution should be valid (intermediate declaration collapses): %v", err)
	}
	checkTrackersMatch(t, exec, st, gt, vt, f)
	// The collapsed run jumps from 2 to 3 at t=2: global skew is 1.
	if !st.Global().Skew.Equal(rat.FromInt(1)) {
		t.Errorf("global skew = %s, want 1", st.Global().Skew)
	}
}

// dropNode jumps its clock downward at t=3 — a genuine validity violation.
type dropNode struct{ id int }

func (n *dropNode) Init(rt *engine.Runtime) {
	if n.id == 0 {
		rt.SetTimerAtHW(rat.FromInt(3), 1)
	}
}

func (n *dropNode) OnTimer(rt *engine.Runtime, _ int) {
	rt.SetLogical(rt.Logical().Sub(rat.FromInt(2)), rat.FromInt(1))
}

func (n *dropNode) OnMessage(*engine.Runtime, int, engine.Message) {}

type dropProtocol struct{}

func (dropProtocol) Name() string               { return "drop" }
func (dropProtocol) NewNode(id int) engine.Node { return &dropNode{id: id} }
func (dropProtocol) CloneState(n engine.Node) engine.Node {
	c := *n.(*dropNode)
	return &c
}

// slowNode runs its logical clock at multiplier 1/4 — a rate violation.
type slowNode struct{}

func (slowNode) Init(rt *engine.Runtime)                        { rt.SetLogical(rt.Logical(), rat.MustFrac(1, 4)) }
func (slowNode) OnTimer(*engine.Runtime, int)                   {}
func (slowNode) OnMessage(*engine.Runtime, int, engine.Message) {}

type slowProtocol struct{}

func (slowProtocol) Name() string                         { return "slow" }
func (slowProtocol) NewNode(int) engine.Node              { return slowNode{} }
func (slowProtocol) CloneState(n engine.Node) engine.Node { return n }

func TestValidityViolationsDetectedOnline(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))}
	for _, tc := range []struct {
		name  string
		proto engine.Protocol
	}{
		{"downward jump", dropProtocol{}},
		{"slow rate", slowProtocol{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{
				Net:       net,
				Schedules: scheds,
				Adversary: engine.Midpoint(),
				Protocol:  tc.proto,
				Duration:  rat.FromInt(6),
				Rho:       rat.MustFrac(1, 2),
			}
			f := LinearGradient(rat.FromInt(100), rat.FromInt(1))
			exec, st, gt, vt := runBoth(t, cfg, f)
			if CheckValidity(exec) == nil {
				t.Fatal("recorded execution unexpectedly valid")
			}
			if vt.Err() == nil {
				t.Fatal("online validity tracker missed the violation")
			}
			checkTrackersMatch(t, exec, st, gt, vt, f)
		})
	}
}

// TestGradientFirstViolation: the tracker must pinpoint when the allowed
// skew is first exceeded, enabling early stopping.
func TestGradientFirstViolation(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{clock.Constant(rat.MustFrac(3, 2)), clock.Constant(rat.FromInt(1))}
	// No messages: skew grows linearly at rate 1/2, exceeding 1 after t=2.
	cfg := engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  gossipProtocol{period: rat.FromInt(100)},
		Duration:  rat.FromInt(8),
		Rho:       rat.MustFrac(1, 2),
	}
	f := LinearGradient(rat.FromInt(1), rat.Rat{})
	_, _, gt, _ := runBoth(t, cfg, f)
	v, ok := gt.Violation()
	if !ok {
		t.Fatal("no violation recorded")
	}
	if !v.Skew.Greater(v.Allowed) {
		t.Errorf("violation skew %s not above allowed %s", v.Skew, v.Allowed)
	}
	if v.At.Greater(rat.FromInt(8)) {
		t.Errorf("violation at %s beyond horizon", v.At)
	}
}

func TestTrackerMisuseSurfacesError(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{clock.Constant(rat.FromInt(1)), clock.Constant(rat.FromInt(1))}
	st, err := NewSkewTracker(net, scheds)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush(rat.FromInt(5))
	st.OnDeclare(trace.Decl{Node: 0, Real: rat.FromInt(3), Value: rat.FromInt(3), Mult: rat.FromInt(1), HW0: rat.FromInt(3)})
	if st.Err() == nil {
		t.Error("out-of-order declaration not surfaced")
	}
	if _, err := NewSkewTracker(net, scheds[:1]); err == nil {
		t.Error("schedule count mismatch accepted")
	}
}

// nopObserver implements every observer interface the trackers implement,
// and does nothing.
type nopObserver struct{}

func (nopObserver) OnAction(trace.Action)     {}
func (nopObserver) OnSend(trace.MsgRecord)    {}
func (nopObserver) OnDeliver(trace.MsgRecord) {}
func (nopObserver) OnDeclare(trace.Decl)      {}
func (nopObserver) OnHorizon(rat.Rat)         {}
func (nopObserver) AdoptFixedLane(int64)      {}

// TestTrackersAddNoStepAllocations: once warm, the skew and validity
// trackers allocate nothing per engine step — a drifting 9-node line steps
// with them attached at no more allocations than with do-nothing observers
// behind the same interfaces. Each side is the least of five measurements
// of the same steps, each on a fresh engine: an allocation made elsewhere
// in the process lands in one measurement and, since AllocsPerRun truncates
// its average, can tip it by one, while an allocation the trackers make
// lands in all five.
func TestTrackersAddNoStepAllocations(t *testing.T) {
	net, err := network.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := clock.Diverse(9, rat.MustFrac(3, 4), rat.MustFrac(5, 4), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	perRun := func(obs ...engine.Observer) float64 {
		eng, err := engine.New(net,
			engine.WithProtocol(gossipProtocol{period: rat.FromInt(1)}),
			engine.WithAdversary(engine.HashAdversary{Seed: 5, Denom: 8}),
			engine.WithSchedules(scheds),
			engine.WithRho(rat.MustFrac(1, 2)),
			engine.WithObservers(obs...),
		)
		if err != nil {
			t.Fatal(err)
		}
		steps := func() {
			for i := 0; i < 20; i++ {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 10; i++ {
			steps()
		}
		return testing.AllocsPerRun(20, steps)
	}
	least := func(observers func() []engine.Observer) float64 {
		m := perRun(observers()...)
		for i := 1; i < 5; i++ {
			m = min(m, perRun(observers()...))
		}
		return m
	}
	var st *SkewTracker
	tracked := least(func() []engine.Observer {
		st, err = NewSkewTracker(net, scheds)
		if err != nil {
			t.Fatal(err)
		}
		return []engine.Observer{st, NewValidityTracker(scheds)}
	})
	bare := least(func() []engine.Observer { return []engine.Observer{nopObserver{}, nopObserver{}} })
	if tracked > bare {
		t.Errorf("trackers allocate: %v allocations per 20 steps, %v with no-op observers", tracked, bare)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}
