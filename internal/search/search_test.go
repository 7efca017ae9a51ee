package search

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
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
			full.fromScratch = true
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
				full.fromScratch = true
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

// TestSearchByteBudget pins the bytes one prefix-cached search allocates on
// the E13 -long workload, where candidates run with no decision log, each
// beam entry is recorded by one replay, and every mutant shares its parent's
// script. Copying the trunk's decisions into every fork's log on its first
// send, and growing every log by doubling, took 3.5 MB; giving every delay
// mutant a copy of its parent's script to change one entry took 2.6 MB; a
// decision log on every candidate, sharing its trunk's decisions and sized
// once from its script, took 1.75 MB.
func TestSearchByteBudget(t *testing.T) {
	opt := longE13Opts(t)
	opt.Workers = 1
	// One processor and a collection first keep the runtime's own
	// allocations out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Search(opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 2_000_000 {
		t.Fatalf("search allocated %d bytes, want at most 2.0 MB", b)
	}
}

// scriptsEqual reports whether two delay scripts hold the same entries.
func scriptsEqual(a, b map[trace.MsgKey]rat.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// edited returns a copy of script with k's delay set to v.
func edited(script map[trace.MsgKey]rat.Rat, k trace.MsgKey, v rat.Rat) map[trace.MsgKey]rat.Rat {
	out := make(map[trace.MsgKey]rat.Rat, len(script)+1)
	for kk, vv := range script {
		out[kk] = vv
	}
	out[k] = v
	return out
}

// TestMutantsShareParentScript: over one generation of the E13 -long
// workload with rate windows, every mutant of a beam parent — rate, window
// and delay mutants alike — holds the one script map the campaign built for
// that parent; a delay mutant's edit changes one entry on a key of that
// script, and a recorded replay of the mutant realizes it; and evaluating
// the generation leaves each parent's script equal to its log's Script(). A
// per-mutant copy of the script fails the first check.
func TestMutantsShareParentScript(t *testing.T) {
	opt := longE13Opts(t)
	opt.RateWindows = 4
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	for len(c.beam) < 2 && !c.Done() { // round zero leaves the base alone in the beam
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Done() {
		t.Fatal("campaign finished before its beam held two parents")
	}
	parents := make(map[*DecisionLog]bool, len(c.beam))
	for _, p := range c.beam {
		parents[p.log] = true
	}
	scripts := make(map[*DecisionLog]map[trace.MsgKey]rat.Rat) // each parent's shared script
	owner := make(map[uintptr]*DecisionLog)                    // and whose it is
	var rate, window, delay []candidate
	for _, m := range c.pending {
		switch {
		case m.parent == nil:
			rate = append(rate, m)
			continue
		case m.edit != nil:
			delay = append(delay, m)
		default:
			window = append(window, m)
		}
		if !parents[m.parent] {
			t.Fatalf("candidate %d names a parent log outside the beam", m.id)
		}
		p := reflect.ValueOf(m.script).Pointer()
		if s, ok := scripts[m.parent]; ok && reflect.ValueOf(s).Pointer() != p {
			t.Fatalf("candidate %d holds a script map of its own, not its parent's", m.id)
		}
		if o, ok := owner[p]; ok && o != m.parent {
			t.Fatalf("candidate %d shares a script map with another parent's mutants", m.id)
		}
		scripts[m.parent], owner[p] = m.script, m.parent
	}
	if len(rate) == 0 || len(window) == 0 || len(delay) == 0 || len(scripts) != len(c.beam) {
		t.Fatalf("weak fixture: %d rate, %d window, %d delay mutants over %d of %d parents",
			len(rate), len(window), len(delay), len(scripts), len(c.beam))
	}
	for _, m := range rate {
		if m.edit != nil {
			t.Fatalf("rate mutant %d carries an edit", m.id)
		}
		if _, ok := owner[reflect.ValueOf(m.script).Pointer()]; !ok {
			t.Fatalf("rate mutant %d holds a script map no parent's mutants share", m.id)
		}
	}
	for _, m := range delay {
		old, ok := m.script[m.edit.Key]
		if !ok || old.Equal(m.edit.Delay) {
			t.Fatalf("delay mutant %d: edit %v=%s on script entry %s (present %v)", m.id, m.edit.Key, m.edit.Delay, old, ok)
		}
	}
	evals, _ := evalAll(c.opt, c.pending)
	for _, ev := range evals {
		if ev.err != nil {
			t.Fatalf("candidate %d: %v", ev.cand.id, ev.err)
		}
	}
	for _, m := range delay {
		log := NewDecisionLog()
		if rec := evaluate(c.opt, m, log); rec.err != nil || !log.Script()[m.edit.Key].Equal(m.edit.Delay) {
			t.Fatalf("candidate %d: its recorded run did not realize its edit (err %v)", m.id, rec.err)
		}
	}
	for log, s := range scripts {
		if !scriptsEqual(s, log.Script()) {
			t.Fatal("evaluating the generation wrote into a parent's shared script")
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
// and schedules must reproduce exactly the objective value the search
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
	scheds := res.Schedules
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

// seqCapped delays each message by half its bound while its sequence number
// is below limit, and past its bound from there on, so a run that sends more
// messages than the base run did fails.
type seqCapped struct{ limit uint64 }

func (a seqCapped) Delay(_, _ int, seq uint64, _, bound rat.Rat) rat.Rat {
	if seq >= a.limit {
		return bound.Add(ri(1))
	}
	return bound.Mul(rf(1, 2))
}

// TestSearchErrorNamesFirstFailure: a failed evaluation ends the search with
// its generation's lowest-ID failure, worded by what failed — the base run,
// a seed, or a mutation candidate — around the engine's own error.
func TestSearchErrorNamesFirstFailure(t *testing.T) {
	opt := lineOpts(t, 3, 4)
	plain, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	// A seed that scripts one message of the base run past its bound.
	late := func(name string, k trace.MsgKey) Seed {
		return Seed{Name: name, Script: edited(plain.Script, k, opt.Net.Dist(k.From, k.To).Add(ri(1)))}
	}
	keys := scriptKeys(plain.Script)
	seeds := []Seed{{Name: "fine", Script: plain.Script}, late("late", keys[len(keys)-1]), late("later", keys[0])}

	drift := opt
	drift.Rho = ri(2)
	drift.Seeds = seeds
	if _, err := Search(drift); err == nil || !strings.HasPrefix(err.Error(), "search: base run: engine: drift ρ=2 ") {
		t.Errorf("ρ = 2 with failing seeds: error %v, want the base run's", err)
	}
	seeded := opt
	seeded.Seeds = seeds
	if _, err := Search(seeded); err == nil || !strings.HasPrefix(err.Error(), `search: seed "late": engine: adversary delay `) {
		t.Errorf("two failing seeds: error %v, want the first one's", err)
	}

	// A tail adversary that fails any run sending more messages than the
	// base run: the base passes and some round-one mutants fail.
	norm := opt
	if err := normalize(&norm); err != nil {
		t.Fatal(err)
	}
	log := NewDecisionLog()
	if base := evaluate(norm, candidate{rates: make([]rat.Rat, opt.Net.N())}, log); base.err != nil {
		t.Fatal(base.err)
	}
	var limit uint64
	for _, d := range log.Decisions() {
		limit = max(limit, d.Key.Seq+1)
	}
	capped := opt
	capped.Base = seqCapped{limit}
	c, err := NewCampaign(capped)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatalf("round zero: %v", err)
	}
	var first *evaluation
	failing := 0
	for _, cand := range c.pending {
		if ev := evaluate(c.opt, cand); ev.err != nil {
			failing++
			if first == nil || ev.cand.id < first.cand.id {
				first = &ev
			}
		}
	}
	if failing < 2 {
		t.Fatalf("weak fixture: %d of %d round-one candidates fail", failing, len(c.pending))
	}
	want := fmt.Sprintf("search: candidate %d: %v", first.cand.id, first.err)
	if err := c.Step(); err == nil || err.Error() != want {
		t.Errorf("round one: error %v, want %s", err, want)
	}
	if _, err := Search(capped); err == nil || err.Error() != want {
		t.Errorf("Search: error %v, want %s", err, want)
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
		log := NewDecisionLog()
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
		if d.Key != o.Key || !d.Delay.Equal(o.Delay) || d.Event != o.Event {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d, o)
		}
	}

	// Prefix replay: a script of the first half of the decisions replays
	// them exactly; the rest fall back to the midpoint tail.
	k := orig.Len() / 2
	prefix := make(map[trace.MsgKey]rat.Rat, k)
	for _, d := range orig.Decisions()[:k] {
		prefix[d.Key] = d.Delay
	}
	tail := runWith(engine.ScriptedAdversary{Delays: prefix, Fallback: engine.Midpoint()})
	half := rf(1, 2)
	for _, d := range tail.Decisions() {
		if want, ok := prefix[d.Key]; ok {
			if !d.Delay.Equal(want) {
				t.Fatalf("scripted decision %v delay %s, want %s", d.Key, d.Delay, want)
			}
		} else if mid := half.Mul(net.Dist(d.Key.From, d.Key.To)); !d.Delay.Equal(mid) {
			t.Fatalf("tail decision %v delay %s, want midpoint %s", d.Key, d.Delay, mid)
		}
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
		opt.fromScratch = scratch
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

// refKey is the dedup key as first written: every entry of the candidate's
// script, its edit applied to a copy, rendered with fmt and the entries
// sorted as strings. key must induce exactly the same duplicate relation.
func refKey(c candidate) string {
	var b strings.Builder
	for i, r := range c.rates {
		fmt.Fprintf(&b, "r%d=%s;", i, r.Key())
	}
	script := c.script
	if c.edit != nil {
		script = edited(script, c.edit.Key, c.edit.Delay)
	}
	entries := make([]string, 0, len(script))
	for k, v := range script {
		entries = append(entries, fmt.Sprintf("%d>%d#%d=%s", k.From, k.To, k.Seq, v.Key()))
	}
	sort.Strings(entries)
	b.WriteString(strings.Join(entries, ";"))
	if scheds := schedOverride(c); scheds != nil {
		for i, s := range scheds {
			fmt.Fprintf(&b, ";S%d=", i)
			for _, seg := range s.Rates() {
				fmt.Fprintf(&b, "%s@%s,", seg.Rate.Key(), seg.At.Key())
			}
		}
	}
	return b.String()
}

// checkSameDuplicates asserts that keys and refs, computed for the same
// candidates, induce the same equivalence: keys[a] == keys[b] exactly when
// refs[a] == refs[b], for every pair. Mapping each side onto the other and
// requiring both maps to be consistent checks all pairs at once.
func checkSameDuplicates(t *testing.T, keys, refs []string) {
	t.Helper()
	toRef := make(map[string]string, len(keys))
	toKey := make(map[string]string, len(refs))
	for i := range keys {
		if r, ok := toRef[keys[i]]; ok && r != refs[i] {
			t.Fatalf("candidate %d: key collides with a candidate the reference tells apart:\n%q\n%q", i, r, refs[i])
		}
		if k, ok := toKey[refs[i]]; ok && k != keys[i] {
			t.Fatalf("candidate %d: key splits a reference duplicate:\n%q\n%q", i, k, keys[i])
		}
		toRef[keys[i]], toKey[refs[i]] = refs[i], keys[i]
	}
}

// TestKeyMatchesReferenceOnMutants: over every mutant the campaign enumerates
// in its generations — duplicates included, across parents and rounds — the
// per-parent key order produces the reference's duplicate relation, and every
// mutant scripts its parent's script (the one the order is built from), with
// a delay mutant's edit on one of its keys. The 12-node line has node ids
// >= 10, where string order and numeric order disagree.
func TestKeyMatchesReferenceOnMutants(t *testing.T) {
	windows := longE13Opts(t)
	windows.RateWindows = 4
	cases := []struct {
		name string
		opt  Options
	}{
		{"e13-twonode-d16-windows", windows},
		{"gradient-line-12", lineOpts(t, 12, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCampaign(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			var keys, refs []string
			dups := 0
			for !c.Done() {
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
				for _, parent := range c.beam {
					script := parent.log.Script()
					order := scriptKeys(script)
					for i, m := range mutations(c.opt, parent, script) {
						if reflect.ValueOf(m.script).Pointer() != reflect.ValueOf(script).Pointer() {
							t.Fatalf("mutant %d does not hold its parent's script", i)
						}
						if m.edit != nil {
							if _, ok := script[m.edit.Key]; !ok {
								t.Fatalf("mutant %d edits %v, not a key of its parent's script", i, m.edit.Key)
							}
						}
						keys, refs = append(keys, string(key(nil, m, order))), append(refs, refKey(m))
					}
				}
			}
			distinct := make(map[string]bool, len(refs))
			for _, r := range refs {
				if distinct[r] {
					dups++
				}
				distinct[r] = true
			}
			if c.Evaluated() < 50 || len(keys) < 100 || dups == 0 {
				t.Fatalf("weak fixture: %d evaluated, %d mutants, %d duplicates", c.Evaluated(), len(keys), dups)
			}
			checkSameDuplicates(t, keys, refs)
		})
	}
}

// TestKeyMatchesReferenceOnEdgeCases: hand-built candidates the mutation
// stream rarely produces — fractional and big delays, nil vs empty scripts,
// nil vs set schedule overrides, a window swap against its materialized
// override, zero rate entries, and edits laid over a shared script against
// the scripts they spell out — keep the reference's duplicate relation when
// each key is built from the candidate's own script order.
func TestKeyMatchesReferenceOnEdgeCases(t *testing.T) {
	huge, err := rat.Parse("123456789012345678901234567890/7")
	if err != nil {
		t.Fatal(err)
	}
	wide := rf(1<<40+1, 3) // int64 parts beyond the fast-arithmetic range
	k := func(from, to int, seq uint64) trace.MsgKey { return trace.MsgKey{From: from, To: to, Seq: seq} }
	base := map[trace.MsgKey]rat.Rat{k(0, 1, 0): rf(1, 2), k(1, 0, 0): ri(1), k(10, 2, 3): ri(2)}
	edit := func(key trace.MsgKey, v rat.Rat) map[trace.MsgKey]rat.Rat { return edited(base, key, v) }
	over := func(key trace.MsgKey, v rat.Rat) *Decision { return &Decision{Key: key, Delay: v, Event: 7} }
	one, fast, slow := clock.Constant(ri(1)), clock.Constant(rf(3, 2)), clock.Constant(rf(1, 2))
	window, err := one.ModifyWindow(ri(2), ri(4), func(rat.Rat) rat.Rat { return rf(3, 2) })
	if err != nil {
		t.Fatal(err)
	}
	zero := []rat.Rat{{}, {}}
	cands := []candidate{
		{rates: zero, script: base},
		{rates: zero, script: edit(k(0, 1, 0), rf(1, 2))},                                                            // same script, rebuilt
		{rates: zero, script: edit(k(0, 1, 0), rf(2, 4))},                                                            // same value, unreduced input
		{rates: zero, script: edit(k(0, 1, 0), rf(1, 3))},                                                            // fractional edit
		{rates: zero, script: edit(k(10, 2, 3), huge)},                                                               // big-Rat delay
		{rates: zero, script: edit(k(10, 2, 3), wide)},                                                               // wide int64 delay
		{rates: zero, script: edit(k(1, 0, 0), ri(0))},                                                               // zero delay
		{rates: zero, script: edit(k(2, 10, 3), ri(2))},                                                              // extra key
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(0, 1, 0): rf(1, 2), k(1, 0, 0): ri(1), k(2, 10, 3): ri(2)}}, // same length, other key
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(0, 1, 0): rf(1, 2), k(1, 0, 0): ri(1), k(2, 10, 3): ri(2)}}, // its duplicate
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(1, 0, 1): ri(1)}},
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(1, 0, 1): ri(1), k(0, 1, 0): ri(0)}},
		{rates: zero}, // nil script
		{rates: zero, script: map[trace.MsgKey]rat.Rat{}}, // empty script: same key as nil
		{rates: []rat.Rat{{}, ri(1)}},                     // a rate entry set to 1 differs from zero
		{rates: []rat.Rat{ri(1), {}}},
		{rates: []rat.Rat{rat.FromInt(0), {}}},             // zero built two ways
		{rates: zero, scheds: []*clock.Schedule{one, one}}, // set override differs from nil
		{rates: zero, scheds: []*clock.Schedule{one, clock.Constant(ri(1))}},
		{rates: zero, scheds: []*clock.Schedule{one, fast}},
		{rates: zero, scheds: []*clock.Schedule{one, slow}, script: base},
		{rates: zero, scheds: []*clock.Schedule{one, one}, swapNode: 1, swapSched: window}, // window swap
		{rates: zero, scheds: []*clock.Schedule{one, window}},                              // its materialized form
		{rates: zero, scheds: []*clock.Schedule{one, one}, swapNode: 0, swapSched: window},
		{rates: zero, scheds: []*clock.Schedule{one, fast}, swapNode: 1, swapSched: slow, script: base},
		{rates: zero, scheds: []*clock.Schedule{one, slow}, script: edit(k(0, 1, 0), rf(1, 2))},
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(0, 1, 5): ri(1)}}, // one key field differs: From,
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(2, 1, 5): ri(1)}},
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(0, 2, 5): ri(1)}}, // To,
		{rates: zero, script: map[trace.MsgKey]rat.Rat{k(0, 1, 6): ri(1)}}, // Seq

		{rates: zero, script: base, edit: over(k(0, 1, 0), rf(1, 3))},                                       // 30: an edit over the script, as 3 spells it out
		{rates: zero, script: base, edit: over(k(0, 1, 0), rf(2, 4))},                                       // an edit to the value it replaces, as 0
		{rates: zero, script: base, edit: over(k(10, 2, 3), huge)},                                          // as 4
		{rates: zero, script: base, edit: over(k(1, 0, 0), ri(0))},                                          // as 6
		{rates: zero, script: base, edit: over(k(1, 0, 0), rf(1, 3))},                                       // the same delay on another key than 30
		{rates: zero, scheds: []*clock.Schedule{one, slow}, script: base, edit: over(k(0, 1, 0), rf(1, 2))}, // as 20
		{rates: []rat.Rat{{}, ri(1)}, script: base, edit: over(k(0, 1, 0), rf(1, 3))},                       // other rates than 30
	}
	keys := make([]string, len(cands))
	refs := make([]string, len(cands))
	for i, c := range cands {
		keys[i] = string(key(nil, c, scriptKeys(c.script)))
		refs[i] = refKey(c)
	}
	checkSameDuplicates(t, keys, refs)
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {8, 9}, {12, 13}, {12, 16}, {17, 18}, {21, 22}, {20, 24}, {20, 25},
		{3, 30}, {0, 31}, {4, 32}, {6, 33}, {20, 35}} {
		if keys[pair[0]] != keys[pair[1]] {
			t.Errorf("candidates %d and %d should be duplicates:\n%q\n%q", pair[0], pair[1], keys[pair[0]], keys[pair[1]])
		}
	}
	for _, pair := range [][2]int{{0, 3}, {0, 4}, {4, 5}, {0, 6}, {7, 8}, {0, 8}, {10, 11}, {12, 14}, {12, 17}, {14, 15}, {19, 20}, {21, 23}, {0, 20}, {26, 27}, {26, 28}, {26, 29},
		{0, 30}, {30, 34}, {30, 36}} {
		if keys[pair[0]] == keys[pair[1]] {
			t.Errorf("candidates %d and %d should differ, both key %q", pair[0], pair[1], keys[pair[0]])
		}
	}
}
