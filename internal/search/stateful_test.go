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
		full.DisablePrefixCache = true
		scratch, err := Search(full)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, cached, scratch)
		if cached.EngineSteps >= scratch.EngineSteps {
			t.Fatalf("workers=%d: prefix cache dispatched %d events, full resim %d; no sharing happened",
				workers, cached.EngineSteps, scratch.EngineSteps)
		}
		if len(cached.Notes) != 0 {
			t.Fatalf("cloneable stateful base triggered a degradation note: %v", cached.Notes)
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

// TestStatelessBaseHasNoNotes: Search records no notes of its own; only a
// driver (the dist coordinator) appends degradation notes.
func TestStatelessBaseHasNoNotes(t *testing.T) {
	res, err := Search(lineOpts(t, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) != 0 {
		t.Fatalf("stateless base produced notes: %v", res.Notes)
	}
}

// TestPrefixSchedulerEdgeCases: regression coverage for the fork-index
// arithmetic — a candidate diverging at the very first captured decision
// (no shared prefix), one diverging at event 0 (before anything dispatched),
// and one identical to its parent (no divergence exists) must all evaluate
// byte-identically to from-scratch simulation instead of forking at a bogus
// index.
func TestPrefixSchedulerEdgeCases(t *testing.T) {
	opt := lineOpts(t, 4, 2)
	if err := normalize(&opt); err != nil {
		t.Fatal(err)
	}

	// Capture a parent run: the unmutated base candidate.
	parentCand := candidate{id: 0, rates: make([]rat.Rat, opt.Net.N())}
	parent := evaluate(opt, parentCand)
	if parent.err != nil {
		t.Fatal(parent.err)
	}
	decs := parent.log.Decisions()
	if len(decs) < 2 {
		t.Fatalf("parent run captured only %d decisions", len(decs))
	}

	mutate := func(idx int) map[trace.MsgKey]rat.Rat {
		s := parent.log.Script()
		d := decs[idx]
		v := d.Bound // snap to the full bound; the base is Midpoint, so this diverges
		if v.Equal(d.Delay) {
			v = rat.Rat{}
		}
		s[d.Key] = v
		return s
	}
	cands := []candidate{
		// Diverges at the first captured decision: the trunk must not replay
		// a single event before forking.
		{script: mutate(0), rates: parentCand.rates, parent: parent.log, divIdx: 0, divEvent: decs[0].Event},
		// Bogus divergence event 0 (before any dispatched event): must fork
		// from the initial state and still match from-scratch.
		{script: mutate(0), rates: parentCand.rates, parent: parent.log, divIdx: 0, divEvent: 0},
		// Identical to the parent — divergence never occurs; the fork just
		// replays the parent's tail.
		{script: parent.log.Script(), rates: parentCand.rates, parent: parent.log,
			divIdx: len(decs) - 1, divEvent: decs[len(decs)-1].Event},
	}
	for i := range cands {
		cands[i].id = i + 1
	}
	forked, _ := evalAll(opt, cands)
	scratchOpt := opt
	scratchOpt.DisablePrefixCache = true
	scratch, _ := evalAll(scratchOpt, cands)
	for i := range cands {
		f, s := forked[i], scratch[i]
		if f.err != nil || s.err != nil {
			t.Fatalf("candidate %d: forked err=%v scratch err=%v", i, f.err, s.err)
		}
		if !f.value.Equal(s.value) || f.steps != s.steps {
			t.Fatalf("candidate %d: forked value %s steps %d, scratch value %s steps %d",
				i, f.value, f.steps, s.value, s.steps)
		}
		fd, sd := f.log.Decisions(), s.log.Decisions()
		if len(fd) != len(sd) {
			t.Fatalf("candidate %d: forked %d decisions, scratch %d", i, len(fd), len(sd))
		}
		for k := range fd {
			if fd[k].Key != sd[k].Key || !fd[k].Delay.Equal(sd[k].Delay) || fd[k].Event != sd[k].Event {
				t.Fatalf("candidate %d decision %d differs: %+v vs %+v", i, k, fd[k], sd[k])
			}
		}
	}
	// The identical candidate's outcome equals its parent's exactly.
	if !forked[2].value.Equal(parent.value) || forked[2].steps != parent.steps {
		t.Fatalf("identical candidate evaluated to %s/%d, parent %s/%d",
			forked[2].value, forked[2].steps, parent.value, parent.steps)
	}
}
