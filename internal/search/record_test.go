package search

import (
	"fmt"
	"strings"
	"testing"

	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// freshLog runs cand from scratch on an engine built here, not by the
// search, with a decision log attached, and returns the log: the script and
// its edit over the stateless base, under the candidate's own schedules.
func freshLog(t *testing.T, opt Options, cand candidate) *DecisionLog {
	t.Helper()
	var adv engine.Adversary = engine.ScriptedAdversary{Delays: cand.script, Fallback: opt.Base}
	if e := cand.edit; e != nil {
		adv = engine.ScriptedAdversary{Delays: map[trace.MsgKey]rat.Rat{e.Key: e.Delay}, Fallback: adv}
	}
	log := NewDecisionLog()
	eng, err := engine.New(opt.Net,
		engine.WithProtocol(opt.Protocol),
		engine.WithAdversary(adv),
		engine.WithSchedules(effectiveScheds(opt, cand)),
		engine.WithRho(opt.Rho),
		engine.WithObservers(log),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(opt.Duration); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestOnlyBeamEntriesHoldLogs: over every generation of the E13 -long
// workload with rate windows, no candidate evaluation holds a decision log,
// forked or run from scratch, and after each Step every beam entry holds one
// equal, decision for decision, to a fresh from-scratch run of its
// candidate. Rate mutants take the first generation's beam places, and a
// window and a delay mutant must take later ones, so the recording replay is
// checked against both kinds of fork.
func TestOnlyBeamEntriesHoldLogs(t *testing.T) {
	opt := longE13Opts(t)
	opt.RateWindows = 4
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]candidate)
	windows, delays := 0, 0
	for gen := 0; !c.Done(); gen++ {
		for _, cand := range c.pending {
			byID[cand.id] = cand
		}
		evals, _ := evalAll(c.opt, c.pending)
		for _, ev := range evals {
			if ev.err != nil {
				t.Fatalf("candidate %d: %v", ev.cand.id, ev.err)
			}
			if ev.log != nil {
				t.Fatalf("generation %d: candidate %d's evaluation holds a decision log", gen, ev.cand.id)
			}
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for _, entry := range c.beam {
			switch cand := byID[entry.cand.id]; {
			case cand.swapSched != nil:
				windows++
			case cand.edit != nil:
				delays++
			}
			if entry.log == nil {
				t.Fatalf("generation %d: beam entry %d holds no log", gen, entry.cand.id)
			}
			got, want := entry.log.Decisions(), freshLog(t, c.opt, byID[entry.cand.id]).Decisions()
			if len(got) != len(want) {
				t.Fatalf("beam entry %d: %d recorded decisions, a fresh run makes %d", entry.cand.id, len(got), len(want))
			}
			for k := range got {
				if got[k].Key != want[k].Key || !got[k].Delay.Equal(want[k].Delay) || got[k].Event != want[k].Event {
					t.Fatalf("beam entry %d decision %d: recorded %+v, fresh %+v", entry.cand.id, k, got[k], want[k])
				}
			}
		}
	}
	if windows == 0 || delays == 0 {
		t.Fatalf("weak fixture: window mutants took %d beam places, delay mutants %d", windows, delays)
	}
}

// TestRecordReplayMismatchFailsCampaign: a candidate whose recording replay
// disagrees with its evaluation fails the campaign, naming it. The window
// mutant below is evaluated by forking its parent's trunk and swapping its
// window schedule in, but a constant-rate override on its swapped node makes
// its from-scratch replay run under its parent's un-swapped schedule, as
// the fork of a broken scheduler would disagree with its own candidate.
func TestRecordReplayMismatchFailsCampaign(t *testing.T) {
	opt := longE13Opts(t)
	opt.RateWindows = 4
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	evals, _ := evalAll(c.opt, c.pending)
	var win *evaluation
	for i, ev := range evals {
		if ev.err != nil {
			t.Fatalf("candidate %d: %v", ev.cand.id, ev.err)
		}
		if ev.cand.swapSched != nil && ev.value.Greater(c.best.value) && (win == nil || ev.value.Greater(win.value)) {
			win = &evals[i]
		}
	}
	if win == nil {
		t.Fatal("weak fixture: no window mutant beats the base")
	}
	bad := win.cand
	bad.rates = append([]rat.Rat(nil), bad.rates...)
	bad.rates[bad.swapNode] = rat.FromInt(1) // the base schedules are all rate 1
	c.pending = []candidate{bad}
	err = c.Step()
	want := fmt.Sprintf("search: candidate %d: its recording replay reached %s ", bad.id, c.baseline)
	if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("its evaluation %s ", win.value)) {
		t.Fatalf("error %v, want one starting %q and naming the evaluation's %s", err, want, win.value)
	}
	if !c.Done() {
		t.Fatal("the campaign goes on after a failed recording replay")
	}
}

// TestRecordChecksValueAndWitness: record refuses an evaluation whose value
// or any part of whose witness — the pair, the skew, the time — its replay
// does not reach, naming the candidate, and records the untouched one.
func TestRecordChecksValueAndWitness(t *testing.T) {
	opt := lineOpts(t, 4, 1)
	if err := normalize(&opt); err != nil {
		t.Fatal(err)
	}
	ev := evaluate(opt, candidate{id: 7, rates: make([]rat.Rat, opt.Net.N())})
	if ev.err != nil {
		t.Fatal(ev.err)
	}
	c := &Campaign{opt: opt, round: 1}
	rec := ev
	if err := c.record(&rec); err != nil || rec.log == nil || rec.log.Len() == 0 {
		t.Fatalf("the evaluation as it is: err %v, log %v", err, rec.log)
	}
	one := rat.FromInt(1)
	for name, tamper := range map[string]func(*evaluation){
		"value":  func(e *evaluation) { e.value = e.value.Add(one) },
		"pair i": func(e *evaluation) { e.witness.I = e.witness.J },
		"pair j": func(e *evaluation) { e.witness.J = e.witness.I },
		"skew":   func(e *evaluation) { e.witness.Skew = e.witness.Skew.Add(one) },
		"time":   func(e *evaluation) { e.witness.At = e.witness.At.Add(one) },
	} {
		bad := ev
		tamper(&bad)
		if err := c.record(&bad); err == nil || !strings.HasPrefix(err.Error(), "search: candidate 7: its recording replay reached ") {
			t.Errorf("%s changed: error %v, want the candidate's replay refused", name, err)
		}
	}
}
