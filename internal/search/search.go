package search

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Objective selects the quantity the search maximizes.
type Objective int

// Objectives.
const (
	// ObjectiveGlobalSkew maximizes the worst |L_i − L_j| over all pairs.
	ObjectiveGlobalSkew Objective = iota
	// ObjectiveLocalSkew maximizes the worst |L_i − L_j| over distance-1
	// pairs.
	ObjectiveLocalSkew
	// ObjectiveGradientMargin maximizes max over pairs of
	// |L_i − L_j| − f(d(i,j)): positive values are gradient violations.
	ObjectiveGradientMargin
)

// String returns the objective's flag-style name.
func (o Objective) String() string {
	switch o {
	case ObjectiveGlobalSkew:
		return "global"
	case ObjectiveLocalSkew:
		return "local"
	case ObjectiveGradientMargin:
		return "margin"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// ParseObjective parses an objective name as used by the CLIs.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(s) {
	case "global":
		return ObjectiveGlobalSkew, nil
	case "local":
		return ObjectiveLocalSkew, nil
	case "margin":
		return ObjectiveGradientMargin, nil
	default:
		return 0, fmt.Errorf("search: unknown objective %q (want global | local | margin)", s)
	}
}

// Seed is an initial candidate injected into the search beam next to the
// unmutated base: a replayable delay script and, optionally, full hardware
// schedules. Seeds are how the certified lower-bound constructions enter the
// search (see internal/lowerbound AdversarySeed exporters): seeded with the
// Shift construction's β execution, the hunter starts at — not below — the
// proven bound, and mutates outward from there.
type Seed struct {
	// Name labels the seed in error messages.
	Name string
	// Script is the seed's delay script, replayed over the Base tail.
	Script map[trace.MsgKey]rat.Rat
	// Schedules, when non-nil, replaces the base hardware schedules for this
	// candidate (length must equal the node count). The constructions' rate
	// surgery (e.g. the Add Skew γ speed-up) arrives through this field.
	Schedules []*clock.Schedule
}

// The search's budget when Options leaves it unset (zero or negative):
// greedy rounds, beam width and delay mutations per candidate and round.
// The campaign planner (internal/dist) bounds a cell with the same values.
const (
	DefaultRounds         = 4
	DefaultBeam           = 2
	DefaultDelayMutations = 16
)

// Options configures a worst-case search.
type Options struct {
	Net      *network.Network
	Protocol engine.Protocol
	Duration rat.Rat
	Rho      rat.Rat // drift bound ρ; rate mutations stay within [1−ρ, 1+ρ]

	// Schedules are the base hardware schedules (default: all constant 1).
	// Rate mutations replace one node's schedule with a constant-rate one.
	Schedules []*clock.Schedule

	// Base seeds the search and serves as the tail adversary for decisions
	// beyond every candidate script. Default: Midpoint().
	//
	// A stateful Base (an adaptive adversary observing the run it schedules)
	// must implement engine.StatefulAdversary: every evaluation then runs
	// against an independent clone of its initial state, and prefix-cached
	// forks clone the trunk tail's state at the fork point, so results stay
	// byte-identical to full re-simulation. A Base that observes the run
	// without being cloneable is an error: its candidates could not be
	// replayed independently.
	Base engine.Adversary

	// Seeds are additional initial candidates (certified constructions,
	// previous winners) evaluated alongside the base in round zero.
	Seeds []Seed

	Objective Objective
	// Gradient is the bound f for ObjectiveGradientMargin (required there,
	// ignored otherwise).
	Gradient core.GradientFunc

	// Rounds bounds the greedy rounds (each round composes one more mutation
	// on top of the beam). Default DefaultRounds.
	Rounds int
	// Beam is the number of best candidates expanded each round. Default
	// DefaultBeam.
	Beam int
	// DelayMutations caps how many of a candidate's decisions are mutated
	// per round, sampled evenly across the decision log so late decisions
	// are reachable. Default DefaultDelayMutations.
	DelayMutations int
	// MutateTail, when nonzero (in (0, 1]), restricts delay-mutation
	// sampling to the final MutateTail fraction of each parent's decision
	// log. This is the shape of the paper's surgery — perturb the end of the
	// run, keep the prefix indistinguishable — and it is what makes
	// prefix-cached evaluation pay: the shared prefix grows with 1−MutateTail.
	// Zero (the default) samples the whole log.
	MutateTail rat.Rat
	// RateWindows, when > 0, adds windowed rate-schedule mutations to the
	// move set: the run is split into RateWindows equal real-time windows,
	// and each candidate applies clock.ModifyWindow to one node over one
	// window, pinning its rate to 1−ρ or 1+ρ there (the Bounded Increase
	// lemma's surgery shape). Zero disables them. Requires Rho > 0: with
	// ρ = 0 both pins collapse to rate 1 and the move set would silently be
	// empty, so normalize rejects the combination. Window mutants share the
	// parent's execution prefix: the mutated schedule agrees with the
	// parent's before the window starts, so evaluation forks the shared
	// trunk there and swaps the schedule in (Engine.SwapSchedule) instead of
	// re-simulating from time zero.
	RateWindows int
	// Workers bounds the evaluation pool. Default GOMAXPROCS.
	Workers int

	// Metrics, when non-nil, receives campaign-level accounting (generations
	// merged, candidates evaluated, engine steps, prefix-cache savings,
	// recording replays' steps) as each generation is merged. EngineMetrics,
	// when non-nil, instruments every engine this search constructs (trunks,
	// forks, from-scratch evaluations, recording replays) so its step
	// counters advance live during evaluation, not just at merge time.
	// Neither affects the search outcome in any way.
	Metrics       *Metrics
	EngineMetrics *engine.Metrics

	// lane is every engine's lane; cross-lane tests force the LaneRat reference.
	lane engine.Lane
	// fromScratch evaluates every candidate from scratch instead of forking
	// shared script prefixes. Results are byte-identical either way; the
	// equivalence tests and BenchmarkSearchEndToEnd set it.
	fromScratch bool
}

// Result is the outcome of a search: the best adversary found, as a
// replayable script plus rate overrides, with the objective values that
// certify it. Identical Options produce identical Results regardless of
// Workers or GOMAXPROCS.
type Result struct {
	Objective Objective
	// Baseline is the objective value of the unmutated base candidate.
	Baseline rat.Rat
	// Best is the searched worst-case objective value (≥ Baseline).
	Best rat.Rat
	// BestCandidate is the winning candidate's global discovery index (0 =
	// the unmutated base). Candidate indices are assigned in enumeration
	// order, so this is identical however the evaluation was scheduled.
	BestCandidate int
	// Witness is the pair and time attaining Best (skew objectives) or the
	// pair with the worst margin (margin objective).
	Witness core.PairSkew
	// Script is the complete realized decision log of the best run: replay
	// it with ReplayAdversary (or engine.ScriptedAdversary + the base tail)
	// to reproduce the execution exactly.
	Script map[trace.MsgKey]rat.Rat
	// Rates holds per-node constant-rate overrides; a zero Rat means the
	// node keeps its base schedule. When the winner carries windowed surgery
	// or seed schedules that no constant rate describes, the corresponding
	// entries are zero and Schedules is authoritative.
	Rates []rat.Rat
	// Schedules are the effective hardware schedules of the best run (base
	// schedules, constant-rate overrides, windowed surgery, and seed
	// schedules all applied). Replaying Script under Schedules reproduces
	// the winning execution exactly.
	Schedules []*clock.Schedule
	// Rounds is the number of mutation rounds executed, Evaluated the total
	// number of candidate simulations.
	Rounds    int
	Evaluated int
	// EngineSteps counts the engine events the candidate evaluations
	// actually dispatched across the whole search — shared prefixes once,
	// plus the trunk replays that position the forks, and not the replays
	// that record beam entries. CandidateSteps counts what the same
	// evaluations would have dispatched re-simulated from scratch (the sum of
	// every candidate's full execution length); the ratio CandidateSteps /
	// EngineSteps is the prefix-cache speedup.
	EngineSteps    uint64
	CandidateSteps uint64
}

// StepsPerCandidate returns the engine events dispatched per evaluated
// candidate, and ResimPerCandidate what from-scratch re-simulation would
// have dispatched; SavedFraction is 1 − Steps/Resim, the prefix-cache
// saving. The CLIs and E13 report exactly these.
func (r *Result) StepsPerCandidate() float64 {
	return float64(r.EngineSteps) / float64(r.Evaluated)
}

// ResimPerCandidate returns the from-scratch engine events per candidate.
func (r *Result) ResimPerCandidate() float64 {
	return float64(r.CandidateSteps) / float64(r.Evaluated)
}

// SavedFraction returns the fraction of engine events prefix caching saved.
func (r *Result) SavedFraction() float64 {
	return 1 - float64(r.EngineSteps)/float64(r.CandidateSteps)
}

// ReplayAdversary returns the adversary reproducing the best execution found
// (the full realized script over the base tail).
func (r *Result) ReplayAdversary(base engine.Adversary) engine.ScriptedAdversary {
	return engine.ScriptedAdversary{Delays: r.Script, Fallback: base}
}

// candidate is one point of the search space: a delay script layered over
// the base tail adversary, plus per-node constant-rate overrides (zero Rat =
// base schedule) and, for seeds and windowed mutants, a full schedule
// override. id is the global discovery index, the deterministic tie-breaker.
type candidate struct {
	id     int
	script map[trace.MsgKey]rat.Rat
	rates  []rat.Rat
	scheds []*clock.Schedule // non-nil: full base-schedule override

	// Prefix lineage, set on delay and window mutants: the parent's recorded
	// decision log, whose script every mutant of it shares as its own. A
	// delay mutant's edit is its one changed decision, laid over that script
	// (overlay); edit.Event is where it diverges. A nil parent (whole-run
	// rate mutants, seeds, the base) evaluates from scratch.
	parent *DecisionLog
	edit   *Decision

	// Rate-window lineage: the mutant equals its parent except node
	// swapNode's schedule is swapSched, which agrees with the parent's on
	// [0, divTime). scheds stays the PARENT's schedule set — the shared
	// trunk runs under it — and the fork swaps swapSched in at the first
	// event at/after divTime (Engine.SwapSchedule re-derives queued timer
	// times from their hardware targets). schedOverride materializes the
	// candidate's own set for from-scratch evaluation, dedup keys, and the
	// candidate's entry in the beam.
	swapNode  int
	swapSched *clock.Schedule
	divTime   rat.Rat
}

// overlay lays a delay mutant's edit over adv, the adversary its run already
// has, as a one-entry script; a nil edit leaves adv as it is.
func overlay(edit *Decision, adv engine.Adversary) engine.Adversary {
	if edit == nil {
		return adv
	}
	return engine.ScriptedAdversary{Delays: map[trace.MsgKey]rat.Rat{edit.Key: edit.Delay}, Fallback: adv}
}

// evaluation is a candidate's simulated outcome. Only a beam entry holds a
// log: the one its recording replay captured.
type evaluation struct {
	cand    candidate
	value   rat.Rat
	witness core.PairSkew
	log     *DecisionLog
	steps   uint64 // full execution length (prefix + suffix)
	cost    uint64 // events this evaluation actually dispatched (suffix only when forked)
	err     error
}

// Search hunts a skew-maximizing execution for opt.Protocol on opt.Net. See
// the package comment for the algorithm; the result is deterministic in
// Options alone. Search drives a Campaign to the end, one Step per
// generation.
func Search(opt Options) (*Result, error) {
	c, err := NewCampaign(opt)
	if err != nil {
		return nil, err
	}
	for !c.Done() {
		if err := c.Step(); err != nil {
			return nil, err
		}
	}
	return c.Result()
}

// fullSteps sums the full execution lengths of a batch.
func fullSteps(evals []evaluation) uint64 {
	var total uint64
	for _, ev := range evals {
		total += ev.steps
	}
	return total
}

// normalize validates opt and fills defaults.
func normalize(opt *Options) error {
	if opt.Net == nil {
		return fmt.Errorf("search: nil network")
	}
	if opt.Protocol == nil {
		return fmt.Errorf("search: nil protocol")
	}
	if opt.Duration.Sign() <= 0 {
		return fmt.Errorf("search: non-positive duration %s", opt.Duration)
	}
	if opt.Objective == ObjectiveGradientMargin && opt.Gradient == nil {
		return fmt.Errorf("search: ObjectiveGradientMargin needs a Gradient func")
	}
	n := opt.Net.N()
	if opt.Schedules == nil {
		opt.Schedules = make([]*clock.Schedule, n)
		for i := range opt.Schedules {
			opt.Schedules[i] = clock.Constant(rat.FromInt(1))
		}
	}
	if len(opt.Schedules) != n {
		return fmt.Errorf("search: %d schedules for %d nodes", len(opt.Schedules), n)
	}
	for _, s := range opt.Seeds {
		if s.Schedules != nil && len(s.Schedules) != n {
			return fmt.Errorf("search: seed %q has %d schedules for %d nodes", s.Name, len(s.Schedules), n)
		}
	}
	if opt.MutateTail.Sign() < 0 || opt.MutateTail.Greater(rat.FromInt(1)) {
		return fmt.Errorf("search: MutateTail %s outside [0, 1]", opt.MutateTail)
	}
	if opt.RateWindows < 0 {
		return fmt.Errorf("search: negative RateWindows %d", opt.RateWindows)
	}
	if opt.RateWindows > 0 && opt.Rho.Sign() <= 0 {
		return fmt.Errorf("search: RateWindows %d with drift bound ρ=%s: windowed rate surgery pins rates to 1−ρ and 1+ρ, which under ρ <= 0 never changes a schedule, so the windows would silently produce no mutants; set Rho > 0, or RateWindows = 0 to disable windowed surgery", opt.RateWindows, opt.Rho)
	}
	if opt.Base == nil {
		opt.Base = engine.Midpoint()
	}
	if _, ok := engine.CloneAdversaryState(opt.Base); !ok {
		return fmt.Errorf("search: base adversary %T is stateful but not cloneable (it observes the run without implementing engine.StatefulAdversary), so its candidates could not be forked, evaluated in parallel or replayed independently; implement CloneAdversary", opt.Base)
	}
	if opt.Rounds <= 0 {
		opt.Rounds = DefaultRounds
	}
	if opt.Beam <= 0 {
		opt.Beam = DefaultBeam
	}
	if opt.DelayMutations <= 0 {
		opt.DelayMutations = DefaultDelayMutations
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// baseTail returns the tail adversary one evaluation should run against: an
// independent clone of the Base's initial state when the Base is stateful,
// the Base itself when stateless. normalize has refused any Base that cannot
// be cloned.
func baseTail(opt Options) engine.Adversary {
	tail, _ := engine.CloneAdversaryState(opt.Base)
	return tail
}

// effectiveScheds materializes the hardware schedules a candidate runs
// under: its full override (seeds, windowed mutants — with the window
// mutant's swapped-in schedule applied) or the base schedules, with
// constant-rate overrides applied on top.
func effectiveScheds(opt Options, cand candidate) []*clock.Schedule {
	return applyRates(opt, schedOverride(cand), cand.rates)
}

// trunkScheds materializes the schedules the shared trunk runs under:
// effectiveScheds without the rate-window swap. The trunk replays the
// parent's execution, and a window mutant's parent ran the un-swapped set;
// for every other candidate the two are identical.
func trunkScheds(opt Options, cand candidate) []*clock.Schedule {
	return applyRates(opt, cand.scheds, cand.rates)
}

// applyRates lays per-node constant-rate overrides over a schedule override
// (or the base schedules when override is nil).
func applyRates(opt Options, override []*clock.Schedule, rates []rat.Rat) []*clock.Schedule {
	base := opt.Schedules
	if override != nil {
		base = override
	}
	out := make([]*clock.Schedule, len(base))
	for i, s := range base {
		if i < len(rates) && !rates[i].IsZero() {
			out[i] = clock.Constant(rates[i])
		} else {
			out[i] = s
		}
	}
	return out
}

// schedOverride returns the candidate's own full schedule override — its
// scheds with the rate-window swap applied — or nil when it has neither.
// This is the candidate's identity (dedup keys, beam entries) and what a
// from-scratch evaluation runs under.
func schedOverride(c candidate) []*clock.Schedule {
	if c.swapSched == nil {
		return c.scheds
	}
	out := append([]*clock.Schedule(nil), c.scheds...)
	out[c.swapNode] = c.swapSched
	return out
}

// delaySnaps are the candidate delay fractions of the bound: the extremes
// and the midpoint the constructions use.
var delaySnaps = []rat.Rat{{}, rat.MustFrac(1, 2), rat.FromInt(1)}

// mutations enumerates the deterministic single-step edits of a parent
// candidate: per-node whole-run rate flips within ±ρ, windowed rate surgery
// (when enabled), then per-decision delay snaps over an even sample of the
// parent's realized decision log (optionally restricted to its tail). Every
// mutant shares script, the parent's realized script, and none writes to
// it: a delay mutant carries its one changed decision as an edit. Delay and
// window mutants carry prefix lineage (a window mutant's schedule agrees
// with its parent's before the window); whole-run rate flips change clocks
// from time zero and evaluate from scratch.
func mutations(opt Options, parent evaluation, script map[trace.MsgKey]rat.Rat) []candidate {
	var out []candidate
	one := rat.FromInt(1)
	rateChoices := []rat.Rat{one.Sub(opt.Rho), one, one.Add(opt.Rho)}
	for node := 0; node < opt.Net.N(); node++ {
		cur := effectiveRate(opt, parent.cand, node)
		for _, r := range rateChoices {
			if r.Sign() <= 0 || (cur != nil && cur.Equal(r)) {
				continue
			}
			rates := append([]rat.Rat(nil), parent.cand.rates...)
			rates[node] = r
			out = append(out, candidate{script: script, rates: rates, scheds: parent.cand.scheds})
		}
	}
	out = append(out, windowMutations(opt, parent, script)...)

	decs := parent.log.Decisions()
	for _, idx := range sampleTail(len(decs), opt.DelayMutations, opt.MutateTail) {
		d := decs[idx]
		bound := opt.Net.Dist(d.Key.From, d.Key.To)
		for _, frac := range delaySnaps {
			v := frac.Mul(bound)
			if v.Equal(d.Delay) {
				continue
			}
			out = append(out, candidate{
				script: script,
				rates:  parent.cand.rates,
				scheds: parent.cand.scheds,
				parent: parent.log,
				edit:   &Decision{Key: d.Key, Delay: v, Event: d.Event},
			})
		}
	}
	return out
}

// windowMutations enumerates the windowed rate surgery: one node's rate
// pinned to 1−ρ or 1+ρ over one of RateWindows equal slices of the run,
// original schedule elsewhere — the Bounded Increase lemma's ModifyWindow
// surgery as a search move. The resulting schedules rarely stay constant, so
// these candidates drop their constant-rate bookkeeping and carry the full
// (parent) schedule set plus the swap. Because ModifyWindow leaves [0, from)
// untouched, the mutant shares the parent's execution prefix up to the
// window start: the candidate carries prefix lineage and the trunk
// scheduler forks it there, swapping the schedule into the fork.
func windowMutations(opt Options, parent evaluation, script map[trace.MsgKey]rat.Rat) []candidate {
	if opt.RateWindows <= 0 || opt.Rho.Sign() <= 0 {
		return nil
	}
	parentScheds := effectiveScheds(opt, parent.cand)
	one := rat.FromInt(1)
	pins := []rat.Rat{one.Sub(opt.Rho), one.Add(opt.Rho)}
	w := int64(opt.RateWindows)
	var out []candidate
	for node := 0; node < opt.Net.N(); node++ {
		for win := int64(0); win < w; win++ {
			from := opt.Duration.Mul(rat.MustFrac(win, w))
			to := opt.Duration.Mul(rat.MustFrac(win+1, w))
			for _, r := range pins {
				if r.Sign() <= 0 {
					continue
				}
				pinned := r
				ns, err := parentScheds[node].ModifyWindow(from, to, func(rat.Rat) rat.Rat { return pinned })
				if err != nil || schedEqual(ns, parentScheds[node]) {
					continue
				}
				out = append(out, candidate{
					script:    script,
					rates:     make([]rat.Rat, opt.Net.N()),
					scheds:    parentScheds,
					parent:    parent.log,
					swapNode:  node,
					swapSched: ns,
					divTime:   from,
				})
			}
		}
	}
	return out
}

// schedEqual reports whether two schedules have identical rate segments.
func schedEqual(a, b *clock.Schedule) bool {
	ra, rb := a.Rates(), b.Rates()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if !ra[i].At.Equal(rb[i].At) || !ra[i].Rate.Equal(rb[i].Rate) {
			return false
		}
	}
	return true
}

// effectiveRate returns the constant rate node runs at under cand, or nil
// when its effective schedule is not constant (then every flip is a real
// change).
func effectiveRate(opt Options, cand candidate, node int) *rat.Rat {
	if !cand.rates[node].IsZero() {
		r := cand.rates[node]
		return &r
	}
	base := opt.Schedules
	if s := schedOverride(cand); s != nil {
		base = s
	}
	segs := base[node].Rates()
	if len(segs) == 1 {
		r := segs[0].Rate
		return &r
	}
	return nil
}

// sampleTail samples up to k indices from the final `tail` fraction of
// [0, n): the whole range when tail is zero (or one), matching sampleIndices
// exactly in that case.
func sampleTail(n, k int, tail rat.Rat) []int {
	if tail.Sign() <= 0 || tail.GreaterEq(rat.FromInt(1)) {
		return sampleIndices(n, k)
	}
	span := int(tail.Mul(rat.FromInt(int64(n))).Floor())
	if span < 1 {
		span = 1
	}
	if span > n {
		span = n
	}
	start := n - span
	idxs := sampleIndices(span, k)
	for i := range idxs {
		idxs[i] += start
	}
	return idxs
}

// sampleIndices returns up to k indices spread evenly across [0, n), always
// including the first and last when possible, in increasing order.
func sampleIndices(n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k == 1 {
		return []int{0}
	}
	out := make([]int, 0, k)
	last := -1
	for i := 0; i < k; i++ {
		idx := i * (n - 1) / (k - 1)
		if idx != last {
			out = append(out, idx)
			last = idx
		}
	}
	return out
}

// key appends a candidate's dedup key to b: its rates, its script entries
// in MsgKey.Compare order with its edit in place, and its full schedule
// override when one is present. Two candidates get equal keys exactly when
// all three are equal. order lists the script's keys in that order: every
// mutant of one parent shares the parent's script, so Campaign.advance sorts
// them once per parent.
func key(b []byte, c candidate, order []trace.MsgKey) []byte {
	for i, r := range c.rates {
		b = append(b, 'r')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '=')
		b = appendRat(b, r)
		b = append(b, ';')
	}
	for i, k := range order {
		v := c.script[k]
		if c.edit != nil && k == c.edit.Key {
			v = c.edit.Delay
		}
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(k.From), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(k.To), 10)
		b = append(b, '#')
		b = strconv.AppendUint(b, k.Seq, 10)
		b = append(b, '=')
		b = appendRat(b, v)
	}
	if scheds := schedOverride(c); scheds != nil {
		for i, s := range scheds {
			b = append(b, ";S"...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, '=')
			for _, seg := range s.RatesView() {
				b = appendRat(b, seg.Rate)
				b = append(b, '@')
				b = appendRat(b, seg.At)
				b = append(b, ',')
			}
		}
	}
	return b
}

// appendRat appends r.Key() to b, without building the string when the
// numerator and denominator fit in int64.
func appendRat(b []byte, r rat.Rat) []byte {
	n, okN := r.Num()
	d, okD := r.Den()
	if !okN || !okD {
		return append(b, r.Key()...)
	}
	b = strconv.AppendInt(b, n, 10)
	if d != 1 {
		b = append(b, '/')
		b = strconv.AppendInt(b, d, 10)
	}
	return b
}

// scriptKeys returns a script's message keys in MsgKey.Compare order.
func scriptKeys(script map[trace.MsgKey]rat.Rat) []trace.MsgKey {
	keys := make([]trace.MsgKey, 0, len(script))
	for k := range script {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, trace.MsgKey.Compare)
	return keys
}

// objectiveValue reads the configured objective off a flushed tracker.
func objectiveValue(opt Options, skew *core.SkewTracker) (rat.Rat, core.PairSkew) {
	switch opt.Objective {
	case ObjectiveLocalSkew:
		l := skew.Local()
		return l.Skew, l
	case ObjectiveGradientMargin:
		var worst core.PairSkew
		var margin rat.Rat
		first := true
		opt.Net.Pairs(func(i, j int) {
			p := skew.Pair(i, j)
			p.Allowed = opt.Gradient(p.Dist)
			m := p.Skew.Sub(p.Allowed)
			if first || m.Greater(margin) {
				margin, worst, first = m, p, false
			}
		})
		return margin, worst
	default:
		g := skew.Global()
		return g.Skew, g
	}
}

// reduce sorts the pool by (value desc, discovery id asc) and keeps the top
// `beam` entries. The id tie-break makes the selection — and therefore the
// whole search — independent of evaluation timing.
func reduce(pool []evaluation, beam int) []evaluation {
	sort.Slice(pool, func(a, b int) bool {
		if c := pool[a].value.Cmp(pool[b].value); c != 0 {
			return c > 0
		}
		return pool[a].cand.id < pool[b].cand.id
	})
	if len(pool) > beam {
		pool = pool[:beam]
	}
	return pool
}
