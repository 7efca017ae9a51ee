package search

import (
	"runtime"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

func lineOpts(t *testing.T, n int, workers int) Options {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Net:      net,
		Protocol: algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration: ri(8),
		Rho:      rf(1, 2),
		Rounds:   3,
		Beam:     2,

		DelayMutations: 6,
		Workers:        workers,
	}
}

// resultsEqual compares two search results field by field with exact
// rational equality (reflect.DeepEqual would be too strict: equal rationals
// can differ in internal representation).
func resultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Objective != b.Objective {
		t.Fatalf("objective %v vs %v", a.Objective, b.Objective)
	}
	if !a.Best.Equal(b.Best) || !a.Baseline.Equal(b.Baseline) {
		t.Fatalf("values differ: best %s vs %s, baseline %s vs %s", a.Best, b.Best, a.Baseline, b.Baseline)
	}
	if a.Rounds != b.Rounds || a.Evaluated != b.Evaluated {
		t.Fatalf("rounds/evaluated differ: %d/%d vs %d/%d", a.Rounds, a.Evaluated, b.Rounds, b.Evaluated)
	}
	if a.Witness.I != b.Witness.I || a.Witness.J != b.Witness.J ||
		!a.Witness.Skew.Equal(b.Witness.Skew) || !a.Witness.At.Equal(b.Witness.At) {
		t.Fatalf("witness differs: %+v vs %+v", a.Witness, b.Witness)
	}
	if len(a.Script) != len(b.Script) {
		t.Fatalf("script sizes differ: %d vs %d", len(a.Script), len(b.Script))
	}
	for k, v := range a.Script {
		bv, ok := b.Script[k]
		if !ok || !v.Equal(bv) {
			t.Fatalf("script entry %v differs: %s vs %s (present=%v)", k, v, bv, ok)
		}
	}
	if len(a.Rates) != len(b.Rates) {
		t.Fatalf("rates lengths differ: %d vs %d", len(a.Rates), len(b.Rates))
	}
	for i := range a.Rates {
		if !a.Rates[i].Equal(b.Rates[i]) {
			t.Fatalf("rate %d differs: %s vs %s", i, a.Rates[i], b.Rates[i])
		}
	}
	if a.BestCandidate != b.BestCandidate {
		t.Fatalf("best candidate differs: %d vs %d", a.BestCandidate, b.BestCandidate)
	}
	if a.CandidateSteps != b.CandidateSteps {
		t.Fatalf("candidate steps differ: %d vs %d", a.CandidateSteps, b.CandidateSteps)
	}
	if len(a.Schedules) != len(b.Schedules) {
		t.Fatalf("schedule counts differ: %d vs %d", len(a.Schedules), len(b.Schedules))
	}
	for i := range a.Schedules {
		sa, sb := a.Schedules[i].Rates(), b.Schedules[i].Rates()
		if len(sa) != len(sb) {
			t.Fatalf("schedule %d has %d vs %d segments", i, len(sa), len(sb))
		}
		for k := range sa {
			if !sa[k].At.Equal(sb[k].At) || !sa[k].Rate.Equal(sb[k].Rate) {
				t.Fatalf("schedule %d segment %d differs: %s@%s vs %s@%s",
					i, k, sa[k].Rate, sa[k].At, sb[k].Rate, sb[k].At)
			}
		}
	}
}

// TestSearchDeterministicAcrossWorkers: identical Result for a serial
// evaluation, a maximally parallel one, and GOMAXPROCS=1 vs GOMAXPROCS=N —
// the acceptance bar for the parallel reduction.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Search(lineOpts(t, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Search(lineOpts(t, 5, 8))
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, serial, parallel)
	if serial.EngineSteps != parallel.EngineSteps || serial.CandidateSteps != parallel.CandidateSteps {
		t.Fatalf("step accounting differs across workers: %d/%d vs %d/%d",
			serial.EngineSteps, serial.CandidateSteps, parallel.EngineSteps, parallel.CandidateSteps)
	}

	prev := runtime.GOMAXPROCS(1)
	single, err := Search(lineOpts(t, 5, 8))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, serial, single)
}

// TestPrefixCacheMatchesFullResim: the tentpole equivalence — the
// prefix-tree evaluator must return byte-identical Results (Best, Witness,
// Script, Rates, plus the round and evaluation counts) to evaluating every
// candidate from scratch, across topologies, protocols, worker counts, and
// the extended move set; and it must actually dispatch fewer engine events.
func TestPrefixCacheMatchesFullResim(t *testing.T) {
	ring, err := network.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	two, err := network.TwoNode(ri(4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"gradient-line", lineOpts(t, 5, 4)},
		{"gradient-line-serial", lineOpts(t, 5, 1)},
		{"maxgossip-ring", Options{
			Net: ring, Protocol: algorithms.MaxGossip(ri(1)), Duration: ri(8),
			Rho: rf(1, 2), Rounds: 3, Beam: 2, DelayMutations: 6, Workers: 4,
		}},
		{"llw-twonode-tail", Options{
			Net: two, Protocol: algorithms.LLW(algorithms.DefaultLLWParams()), Duration: ri(8),
			Rho: rf(1, 2), Rounds: 3, Beam: 2, DelayMutations: 6, Workers: 4,
			MutateTail: rf(1, 2),
		}},
		{"gradient-line-windows", func() Options {
			o := lineOpts(t, 4, 4)
			o.RateWindows = 2
			return o
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cached, err := Search(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			full := tc.opt
			full.DisablePrefixCache = true
			scratch, err := Search(full)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, cached, scratch)
			if cached.CandidateSteps != scratch.CandidateSteps {
				t.Fatalf("candidate steps differ: cached %d vs scratch %d", cached.CandidateSteps, scratch.CandidateSteps)
			}
			if scratch.EngineSteps != scratch.CandidateSteps {
				t.Fatalf("full resim dispatched %d events but candidates total %d; accounting broken",
					scratch.EngineSteps, scratch.CandidateSteps)
			}
			if cached.EngineSteps >= scratch.EngineSteps {
				t.Fatalf("prefix cache dispatched %d events, full resim %d; no sharing happened",
					cached.EngineSteps, scratch.EngineSteps)
			}
		})
	}
}

// TestRateMutantPrefixCacheMatchesFullResim: the schedule-swap tentpole —
// rate-window mutants evaluated by forking the shared trunk at the first
// event at/after their mutated window's start and swapping the schedule into
// the fork must return byte-identical Results to evaluating every candidate
// from scratch, for a plain and a stateful base tail and on both arithmetic
// lanes, while dispatching strictly fewer engine events.
func TestRateMutantPrefixCacheMatchesFullResim(t *testing.T) {
	mk := func(lane engine.Lane, stateful bool) Options {
		opt := lineOpts(t, 4, 4)
		opt.RateWindows = 2
		opt.lane = lane
		opt.EngineMetrics = engine.NewMetrics(obs.NewRegistry())
		if stateful {
			opt.Base = adaptiveBase(t, opt.Net, opt.Duration)
		}
		return opt
	}
	lanes := []struct {
		name string
		lane engine.Lane
	}{{"auto", engine.LaneAuto}, {"rat", engine.LaneRat}}
	bases := []struct {
		name     string
		stateful bool
	}{{"midpoint", false}, {"adaptive", true}}
	for _, ln := range lanes {
		for _, bs := range bases {
			t.Run(ln.name+"/"+bs.name, func(t *testing.T) {
				opt := mk(ln.lane, bs.stateful)
				cached, err := Search(opt)
				if err != nil {
					t.Fatal(err)
				}
				full := mk(ln.lane, bs.stateful)
				full.DisablePrefixCache = true
				scratch, err := Search(full)
				if err != nil {
					t.Fatal(err)
				}
				checkLane(t, "prefix-cached", opt.EngineMetrics, ln.lane)
				checkLane(t, "from scratch", full.EngineMetrics, ln.lane)
				resultsEqual(t, cached, scratch)
				if scratch.EngineSteps != scratch.CandidateSteps {
					t.Fatalf("full resim dispatched %d events but candidates total %d",
						scratch.EngineSteps, scratch.CandidateSteps)
				}
				if cached.EngineSteps >= scratch.EngineSteps {
					t.Fatalf("window-mutant sharing saved nothing: cached %d vs scratch %d",
						cached.EngineSteps, scratch.EngineSteps)
				}
			})
		}
	}
}

// TestSearchSeeded: a seeded search must start at, not below, the seed's
// own objective value, and seeds must survive validation.
func TestSearchSeeded(t *testing.T) {
	opt := lineOpts(t, 4, 4)
	plain, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the next search with the previous winner: the new Best can only
	// be ≥ the seeded value, even with a crippled mutation budget.
	seeded := opt
	seeded.Rounds = 1
	seeded.DelayMutations = 1
	seeded.Seeds = []Seed{{
		Name:      "previous-winner",
		Script:    plain.Script,
		Schedules: plain.Schedules,
	}}
	res, err := Search(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Less(plain.Best) {
		t.Fatalf("seeded search Best %s below its seed's value %s", res.Best, plain.Best)
	}

	bad := opt
	bad.Seeds = []Seed{{Name: "short", Schedules: []*clock.Schedule{clock.Constant(ri(1))}}}
	if _, err := Search(bad); err == nil || !strings.Contains(err.Error(), "schedules") {
		t.Fatalf("seed with wrong schedule count accepted: %v", err)
	}
}

// TestSearchWindowMutations: with windowed rate surgery enabled the winner
// may carry non-constant schedules; Result.Schedules must replay to exactly
// the reported objective value.
func TestSearchWindowMutations(t *testing.T) {
	opt := lineOpts(t, 4, 4)
	opt.RateWindows = 2
	res, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	plain := lineOpts(t, 4, 4)
	plainRes, err := Search(plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Less(plainRes.Baseline) {
		t.Fatalf("windowed search Best %s below baseline %s", res.Best, plainRes.Baseline)
	}
	replayToBest(t, opt, res)
}

// replayToBest drives a fresh engine under the Result's exact schedules and
// script and demands the reported objective value.
func replayToBest(t *testing.T, opt Options, res *Result) {
	t.Helper()
	skew, err := core.NewSkewTracker(opt.Net, res.Schedules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(opt.Net,
		engine.WithProtocol(opt.Protocol),
		engine.WithAdversary(res.ReplayAdversary(engine.Midpoint())),
		engine.WithSchedules(res.Schedules),
		engine.WithRho(opt.Rho),
		engine.WithObservers(skew),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(opt.Duration); err != nil {
		t.Fatal(err)
	}
	if g := skew.Global().Skew; !g.Equal(res.Best) {
		t.Fatalf("replay global skew %s != searched %s", g, res.Best)
	}
}

// TestSampleTail: tail sampling restricts indices to the final fraction and
// degrades to whole-log sampling at 0 and 1.
func TestSampleTail(t *testing.T) {
	whole := sampleTail(100, 5, rat.Rat{})
	if len(whole) != 5 || whole[0] != 0 || whole[4] != 99 {
		t.Fatalf("sampleTail(100,5,0) = %v, want whole-log sample", whole)
	}
	one := sampleTail(100, 5, ri(1))
	for i := range whole {
		if whole[i] != one[i] {
			t.Fatalf("sampleTail(...,1) = %v differs from whole-log %v", one, whole)
		}
	}
	half := sampleTail(100, 5, rf(1, 2))
	if len(half) != 5 || half[0] != 50 || half[4] != 99 {
		t.Fatalf("sampleTail(100,5,1/2) = %v, want 5 indices in [50,99]", half)
	}
	tiny := sampleTail(4, 8, rf(1, 100))
	if len(tiny) != 1 || tiny[0] != 3 {
		t.Fatalf("sampleTail(4,8,1/100) = %v, want just the last index", tiny)
	}
}

// TestSearchRecoversShiftBound: on the two-node network the searched
// worst-case skew must reach the certified Shift lower bound for every
// protocol in the portfolio — the adversary hunter is at least as strong as
// the paper's hand construction.
func TestSearchRecoversShiftBound(t *testing.T) {
	p := lowerbound.DefaultParams()
	d := ri(2)
	dur := p.Tau().Mul(d)
	for _, proto := range algorithms.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			shift, err := lowerbound.Shift(proto, d, p)
			if err != nil {
				t.Fatal(err)
			}
			net, err := network.TwoNode(d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Search(Options{
				Net: net, Protocol: proto, Duration: dur, Rho: p.Rho,
				Rounds: 4, Beam: 2, DelayMutations: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best.Less(shift.Implied) {
				t.Fatalf("searched worst case %s below certified Shift bound %s", res.Best, shift.Implied)
			}
			if res.Best.Less(res.Baseline) {
				t.Fatalf("search regressed below its own baseline: %s < %s", res.Best, res.Baseline)
			}
		})
	}
}

// TestSearchResultReplays: driving a fresh engine with the result's script
// and rate overrides must reproduce exactly the objective value the search
// reported — the Result is a self-contained adversary, not just a number.
func TestSearchResultReplays(t *testing.T) {
	opt := lineOpts(t, 4, 4)
	res, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Greater(res.Baseline) {
		t.Fatalf("expected improvement over baseline on a drift-free line, got best %s baseline %s", res.Best, res.Baseline)
	}
	base := make([]*clock.Schedule, opt.Net.N())
	for i := range base {
		base[i] = clock.Constant(ri(1))
	}
	scheds := res.ReplaySchedules(base)
	skew, err := core.NewSkewTracker(opt.Net, scheds)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(opt.Net,
		engine.WithProtocol(opt.Protocol),
		engine.WithAdversary(res.ReplayAdversary(engine.Midpoint())),
		engine.WithSchedules(scheds),
		engine.WithRho(opt.Rho),
		engine.WithObservers(skew),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(opt.Duration); err != nil {
		t.Fatal(err)
	}
	if g := skew.Global().Skew; !g.Equal(res.Best) {
		t.Fatalf("replay global skew %s != searched %s", g, res.Best)
	}
}

// TestSearchObjectives: the local and margin objectives read the right
// tracker quantities.
func TestSearchObjectives(t *testing.T) {
	opt := lineOpts(t, 4, 4)
	opt.Objective = ObjectiveLocalSkew
	local, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !local.Witness.Dist.Equal(ri(1)) {
		t.Fatalf("local objective witness at distance %s, want 1", local.Witness.Dist)
	}

	opt.Objective = ObjectiveGradientMargin
	opt.Gradient = core.LinearGradient(ri(0), ri(1)) // f(d) = d
	margin, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	wantMargin := margin.Witness.Skew.Sub(margin.Witness.Allowed)
	if !margin.Best.Equal(wantMargin) {
		t.Fatalf("margin %s != witness skew-allowed %s", margin.Best, wantMargin)
	}
}

// TestSearchOptionValidation: the option errors are loud and precise.
func TestSearchOptionValidation(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	proto := algorithms.Null()
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"nil net", Options{Protocol: proto, Duration: ri(1)}, "nil network"},
		{"nil protocol", Options{Net: net, Duration: ri(1)}, "nil protocol"},
		{"bad duration", Options{Net: net, Protocol: proto}, "duration"},
		{"margin without f", Options{Net: net, Protocol: proto, Duration: ri(1),
			Objective: ObjectiveGradientMargin}, "Gradient"},
		{"schedule count", Options{Net: net, Protocol: proto, Duration: ri(1),
			Schedules: []*clock.Schedule{clock.Constant(ri(1))}}, "schedules"},
		{"rate windows without drift", Options{Net: net, Protocol: proto, Duration: ri(1),
			RateWindows: 2}, "windowed rate surgery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Search(tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseObjective round-trips the CLI names.
func TestParseObjective(t *testing.T) {
	for _, o := range []Objective{ObjectiveGlobalSkew, ObjectiveLocalSkew, ObjectiveGradientMargin} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Fatalf("round trip %v: got %v, err %v", o, got, err)
		}
	}
	if _, err := ParseObjective("chaos"); err == nil {
		t.Fatal("unknown objective should error")
	}
}

// TestSampleIndices: even coverage, endpoints included, no duplicates.
func TestSampleIndices(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{0, 4, nil},
		{3, 0, nil},
		{3, 5, []int{0, 1, 2}},
		{5, 1, []int{0}},
		{9, 3, []int{0, 4, 8}},
	}
	for _, tc := range cases {
		got := sampleIndices(tc.n, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("sampleIndices(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("sampleIndices(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
			}
		}
	}
	got := sampleIndices(100, 7)
	if len(got) != 7 || got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("sampleIndices(100,7) = %v: want 7 entries covering both endpoints", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sampleIndices(100,7) = %v not strictly increasing", got)
		}
	}
}

// TestDecisionLogRoundTrip: replaying a captured run's full script through a
// ScriptedAdversary with no needed fallback reproduces the identical
// decision stream, and a script prefix falls back to the tail beyond it.
func TestDecisionLogRoundTrip(t *testing.T) {
	net, err := network.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	proto := algorithms.MaxGossip(ri(1))
	rho := rf(1, 2)
	dur := ri(6)
	runWith := func(adv engine.Adversary) *DecisionLog {
		t.Helper()
		log := NewDecisionLog(net)
		eng, err := engine.New(net,
			engine.WithProtocol(proto),
			engine.WithAdversary(adv),
			engine.WithRho(rho),
			engine.WithObservers(log),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(dur); err != nil {
			t.Fatal(err)
		}
		return log
	}

	orig := runWith(engine.HashAdversary{Seed: 11, Denom: 8})
	if orig.Len() == 0 {
		t.Fatal("no decisions captured")
	}
	if got := orig.String(); !strings.Contains(got, "decisions") {
		t.Fatalf("String() = %q", got)
	}

	// Full-script replay: the fallback is never consulted (a nil Fallback
	// would fail the run), and the decision stream is identical.
	replay := runWith(engine.ScriptedAdversary{Delays: orig.Script()})
	if replay.Len() != orig.Len() {
		t.Fatalf("replay captured %d decisions, want %d", replay.Len(), orig.Len())
	}
	for i, d := range replay.Decisions() {
		o := orig.Decisions()[i]
		if d.Key != o.Key || !d.Delay.Equal(o.Delay) || !d.SendReal.Equal(o.SendReal) || !d.Bound.Equal(o.Bound) {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d, o)
		}
	}

	// Prefix replay: scripted decisions replay exactly; the rest fall back
	// to the midpoint tail.
	k := orig.Len() / 2
	prefix := orig.ScriptPrefix(k)
	tail := runWith(engine.ScriptedAdversary{Delays: prefix, Fallback: engine.Midpoint()})
	half := rf(1, 2)
	for _, d := range tail.Decisions() {
		if want, ok := prefix[d.Key]; ok {
			if !d.Delay.Equal(want) {
				t.Fatalf("scripted decision %v delay %s, want %s", d.Key, d.Delay, want)
			}
		} else if !d.Delay.Equal(half.Mul(d.Bound)) {
			t.Fatalf("tail decision %v delay %s, want midpoint %s", d.Key, d.Delay, half.Mul(d.Bound))
		}
	}

	// Scripted() convenience wires the same script and tail.
	sa := orig.Scripted(engine.Midpoint())
	if len(sa.Delays) != orig.Len() {
		t.Fatalf("Scripted() carries %d delays, want %d", len(sa.Delays), orig.Len())
	}
	if sa.Fallback == nil {
		t.Fatal("Scripted() dropped the tail")
	}
}

// TestScriptExhaustionFailsRun: a script with no fallback fails the run with
// a precise error instead of panicking mid-dispatch.
func TestScriptExhaustionFailsRun(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.MaxGossip(ri(1))),
		engine.WithAdversary(engine.ScriptedAdversary{}),
		engine.WithRho(rf(1, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.RunUntil(ri(4))
	if err == nil || !strings.Contains(err.Error(), "no Fallback") {
		t.Fatalf("expected script-exhaustion error, got %v", err)
	}
}

func mustLog(t *testing.T, net *network.Network, recs []trace.MsgRecord) *DecisionLog {
	t.Helper()
	log := NewDecisionLog(net)
	for _, r := range recs {
		log.OnSend(r)
	}
	return log
}

// TestScriptPrefixClamps: a prefix longer than the log is the whole log.
func TestScriptPrefixClamps(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	log := mustLog(t, net, []trace.MsgRecord{
		{Key: trace.MsgKey{From: 0, To: 1, Seq: 0}, Delay: rf(1, 2)},
		{Key: trace.MsgKey{From: 1, To: 2, Seq: 0}, Delay: ri(1)},
	})
	if got := log.ScriptPrefix(10); len(got) != 2 {
		t.Fatalf("clamped prefix has %d entries, want 2", len(got))
	}
	if got := log.ScriptPrefix(1); len(got) != 1 {
		t.Fatalf("prefix(1) has %d entries, want 1", len(got))
	}
}

// checkLane asserts which lane a search's engines were built on, read off
// the engine metrics the search ran with: a forced rat-lane search builds
// only rat-lane engines, and an auto-lane one engages the fixed lane. Without
// it, a lane selector that stopped reaching engine.New would make the
// cross-lane tests compare auto against auto and still pass.
func checkLane(t *testing.T, what string, met *engine.Metrics, lane engine.Lane) {
	t.Helper()
	fixedRuns, ratRuns := met.FixedLaneRuns.Value(), met.RatLaneRuns.Value()
	if lane == engine.LaneRat {
		if ratRuns == 0 || fixedRuns != 0 {
			t.Fatalf("%s: forced rat lane built %d fixed-lane and %d rat-lane engines", what, fixedRuns, ratRuns)
		}
	} else if fixedRuns == 0 {
		t.Fatalf("%s: auto lane never engaged the fixed lane (%d rat-lane engines)", what, ratRuns)
	}
}

// TestSearchLaneEquivalence: the whole search pipeline — prefix-cached forks
// and full re-simulation alike — returns byte-identical Results whether the
// engines inside it run on the fixed-point lane (the default on these
// common-denominator workloads) or are forced onto the rat lane. Step
// accounting must match too: the lane changes arithmetic representation,
// never which events dispatch.
func TestSearchLaneEquivalence(t *testing.T) {
	run := func(what string, lane engine.Lane, scratch bool) *Result {
		t.Helper()
		opt := lineOpts(t, 5, 4)
		opt.lane = lane
		opt.DisablePrefixCache = scratch
		opt.EngineMetrics = engine.NewMetrics(obs.NewRegistry())
		res, err := Search(opt)
		if err != nil {
			t.Fatal(err)
		}
		checkLane(t, what, opt.EngineMetrics, lane)
		return res
	}
	auto := run("auto", engine.LaneAuto, false)
	ratCached := run("rat prefix-cached", engine.LaneRat, false)
	resultsEqual(t, auto, ratCached)
	if auto.EngineSteps != ratCached.EngineSteps {
		t.Fatalf("engine steps differ across lanes: %d vs %d", auto.EngineSteps, ratCached.EngineSteps)
	}
	resultsEqual(t, auto, run("rat from scratch", engine.LaneRat, true))
}
