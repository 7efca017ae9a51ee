package search

import (
	"strings"
	"testing"

	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// adaptiveBase builds a fresh adaptive (stateful, cloneable) tail adversary
// for a search over net.
func adaptiveBase(t *testing.T, net *network.Network, dur rat.Rat) engine.Adversary {
	t.Helper()
	adv, err := lowerbound.NewAdaptiveScheduler(net, 0, net.N()-1, lowerbound.AutoThreshold(rf(1, 2), dur))
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestStatefulBasePrefixCacheMatchesFullResim: the fork-safety tentpole —
// with an adaptive (stateful, cloneable) Base as the tail adversary, the
// prefix-cached evaluator must stay byte-identical to full re-simulation,
// across worker counts. Every fork clones the tail's state at the fork
// point; sharing it would corrupt the trigger and break this equivalence.
func TestStatefulBasePrefixCacheMatchesFullResim(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opt := lineOpts(t, 4, workers)
		opt.Base = adaptiveBase(t, opt.Net, opt.Duration)
		cached, err := Search(opt)
		if err != nil {
			t.Fatal(err)
		}
		full := lineOpts(t, 4, workers)
		full.Base = adaptiveBase(t, full.Net, full.Duration)
		full.fromScratch = true
		scratch, err := Search(full)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, cached, scratch)
		if cached.EngineSteps >= scratch.EngineSteps {
			t.Fatalf("workers=%d: prefix cache dispatched %d events, full resim %d; no sharing happened",
				workers, cached.EngineSteps, scratch.EngineSteps)
		}
	}
}

// TestStatefulBaseDeterministicAcrossWorkers: worker count must not leak
// into results even when every evaluation clones adversary state.
func TestStatefulBaseDeterministicAcrossWorkers(t *testing.T) {
	serialOpt := lineOpts(t, 4, 1)
	serialOpt.Base = adaptiveBase(t, serialOpt.Net, serialOpt.Duration)
	serial, err := Search(serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	parallelOpt := lineOpts(t, 4, 8)
	parallelOpt.Base = adaptiveBase(t, parallelOpt.Net, parallelOpt.Duration)
	parallel, err := Search(parallelOpt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, serial, parallel)
}

// pollingAdversary observes the run (stateful) but has no CloneAdversary:
// the search must refuse it.
type pollingAdversary struct{ seen int }

func (a *pollingAdversary) Delay(_, _ int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	if a.seen%2 == 0 {
		return bound
	}
	return rat.Rat{}
}
func (a *pollingAdversary) OnAction(act trace.Action) {
	if act.Kind != trace.KindSend {
		a.seen++
	}
}
func (a *pollingAdversary) OnSend(trace.MsgRecord)    {}
func (a *pollingAdversary) OnDeliver(trace.MsgRecord) {}

// TestNonCloneableBaseFallsBackSerial: a stateful, non-cloneable Base is
// refused. Its candidates could be neither forked nor evaluated in
// parallel, and a serial run on the one shared instance would not replay.
func TestNonCloneableBaseFallsBackSerial(t *testing.T) {
	opt := lineOpts(t, 4, 8)
	opt.Rounds = 2
	opt.Base = &pollingAdversary{}
	res, err := Search(opt)
	if err == nil || !strings.Contains(err.Error(), "not cloneable") {
		t.Fatalf("want a not-cloneable error, got result %+v, err %v", res, err)
	}
}

// TestPrefixSchedulerEdgeCases: regression coverage for the fork-index
// arithmetic — a candidate diverging at the very first captured decision
// (no shared prefix), one diverging at event 0 (before anything dispatched),
// and one identical to its parent (no divergence exists) must all evaluate
// to the value, witness and steps of from-scratch simulation instead of
// forking at a bogus index, and each forked candidate's recording replay must
// pass the campaign's check and realize the candidate's edit.
func TestPrefixSchedulerEdgeCases(t *testing.T) {
	opt := lineOpts(t, 4, 2)
	if err := normalize(&opt); err != nil {
		t.Fatal(err)
	}

	// Capture a parent run: the unmutated base candidate, recorded.
	parentCand := candidate{id: 0, rates: make([]rat.Rat, opt.Net.N())}
	plog := NewDecisionLog()
	parent := evaluate(opt, parentCand, plog)
	if parent.err != nil {
		t.Fatal(parent.err)
	}
	decs := plog.Decisions()
	if len(decs) < 2 {
		t.Fatalf("parent run captured only %d decisions", len(decs))
	}

	// Every candidate shares the parent's script; each carries one edit over
	// it, positioned at the edited decision's event.
	script := plog.Script()
	edit := func(idx int, event uint64) *Decision {
		d := decs[idx]
		v := opt.Net.Dist(d.Key.From, d.Key.To) // snap to the full bound; the base is Midpoint, so this diverges
		if v.Equal(d.Delay) {
			v = rat.Rat{}
		}
		return &Decision{Key: d.Key, Delay: v, Event: event}
	}
	last := decs[len(decs)-1]
	cands := []candidate{
		// Diverges at the first captured decision: the trunk must not replay
		// a single event before forking.
		{script: script, rates: parentCand.rates, parent: plog, edit: edit(0, decs[0].Event)},
		// Bogus divergence event 0 (before any dispatched event): must fork
		// from the initial state and still match from-scratch.
		{script: script, rates: parentCand.rates, parent: plog, edit: edit(0, 0)},
		// Identical to the parent — its edit rewrites the last decision to
		// the delay it already has, so divergence never occurs; the fork
		// just replays the parent's tail.
		{script: script, rates: parentCand.rates, parent: plog, edit: &last},
	}
	for i := range cands {
		cands[i].id = i + 1
	}
	forked, _ := evalAll(opt, cands)
	scratchOpt := opt
	scratchOpt.fromScratch = true
	scratch, _ := evalAll(scratchOpt, cands)
	c := &Campaign{opt: opt, round: 1}
	for i := range cands {
		f, s := forked[i], scratch[i]
		if f.err != nil || s.err != nil {
			t.Fatalf("candidate %d: forked err=%v scratch err=%v", i, f.err, s.err)
		}
		if !f.value.Equal(s.value) || f.steps != s.steps || f.witness.I != s.witness.I || f.witness.J != s.witness.J ||
			!f.witness.Skew.Equal(s.witness.Skew) || !f.witness.At.Equal(s.witness.At) {
			t.Fatalf("candidate %d: forked value %s witness %+v steps %d, scratch value %s witness %+v steps %d",
				i, f.value, f.witness, f.steps, s.value, s.witness, s.steps)
		}
		rec := f
		if err := c.record(&rec); err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		if e := cands[i].edit; !rec.log.Script()[e.Key].Equal(e.Delay) {
			t.Fatalf("candidate %d: decision %v realized %s, its edit says %s", i, e.Key, rec.log.Script()[e.Key], e.Delay)
		}
	}
	if want := plog.Script(); !scriptsEqual(script, want) {
		t.Fatal("evaluating the candidates wrote into the parent's shared script")
	}
	// The identical candidate's outcome equals its parent's exactly.
	if !forked[2].value.Equal(parent.value) || forked[2].steps != parent.steps {
		t.Fatalf("identical candidate evaluated to %s/%d, parent %s/%d",
			forked[2].value, forked[2].steps, parent.value, parent.steps)
	}
}
