// Package search hunts worst-case executions: it drives the deterministic
// engine under candidate adversaries and maximizes a skew objective read
// from the online trackers, looking for the delay and drift choices that
// force the most skew out of a protocol.
//
// Fan & Lynch's lower bounds are adversary constructions — executions whose
// drift and delay choices are tuned to force skew. The simulator replays the
// paper's two special-cased constructions exactly (internal/lowerbound); this
// package asks the complementary empirical question: how much skew can an
// automated adversary force on an arbitrary protocol and topology, and how
// close does that come to the certified bounds?
//
// The search is replay-based: a DecisionLog observer captures every
// per-message delay decision of a run as a replayable script (saved, when
// it is saved, as EncodeScript's sorted entries), and candidate
// mutations edit one decision (delay snapped to {0, bound/2, bound}), one
// node's whole-run rate (flipped within ±ρ), or one node's rate over a
// window (clock.ModifyWindow surgery), with a ScriptedAdversary tail
// handling decisions beyond the script. Every mutant of a beam parent shares
// the parent's script, built once per generation and never written: rate
// and window mutants run on it as it is, and a delay mutant carries only its
// one changed decision, laid over the script as a one-entry
// ScriptedAdversary.
//
// Evaluation is prefix-cached: two candidates sharing a decision-script
// prefix share the prefix execution, exactly the structure of the Fan &
// Lynch constructions (perturb a base execution at chosen points, keep the
// prefix indistinguishable). Each round groups the beam's delay mutants by
// parent, replays the shared parent prefix once on a trunk engine, forks the
// engine (Engine.Fork + tracker Clones) at each mutant's first diverging
// decision, and evaluates only the suffix; window mutants fork the same
// trunk at their window's start. Whole-run rate mutants change hardware
// schedules from time zero, so they — and injected Seeds — are evaluated
// from scratch. The fork-based evaluation is byte-identical to full
// re-simulation (asserted by tests).
// Candidates are evaluated concurrently by a bounded worker pool and reduced
// by deterministic argmax with ties broken on candidate index, so the result
// is byte-identical regardless of worker count or GOMAXPROCS.
package search

import (
	"fmt"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Decision is one captured per-message delay choice: the message identity,
// the adversary's chosen delay, and the 1-based index of the dispatched
// engine event during which the send happened. Event is what lets the
// prefix-cached evaluator position a fork exactly before the event that
// realizes a mutated decision: replay Event−1 events, fork, and the mutant's
// whole divergence plays out in the fork. The delay's bound is the network's
// distance between the endpoints, so a decision does not repeat it. A delay
// mutant's edit is a Decision too: the changed key, its new delay, and the
// Event of the parent's decision, where the mutant diverges.
type Decision struct {
	Key   trace.MsgKey
	Delay rat.Rat
	Event uint64
}

// DecisionLog is an engine observer that captures every per-message delay
// decision from the MsgRecord stream, in send order, and converts the run
// into a replayable script for engine.ScriptedAdversary. Attach it with
// Engine.Observe before the first step to capture the complete run.
//
// A log holds its decisions in two segments: prefix, the decisions of the
// log it was cloned from, shared with that log and never written; and own,
// the decisions captured since, in storage of its own. A fork's log thus
// costs only the decisions the fork itself makes.
type DecisionLog struct {
	prefix []Decision
	own    []Decision
	events uint64 // dispatched events seen so far (== Engine.Steps())
}

// NewDecisionLog returns an empty log; it reads everything it records off
// the engine's MsgRecord and action streams.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{}
}

// Clone returns a log that continues from l's decisions. Attach the clone to
// a forked engine to keep capturing a branched run's decisions: the clone
// carries the shared prefix (including the event counter, so Decision.Event
// stays aligned with Engine.Steps across the fork), and the original
// continues logging its own branch untouched. The clone keeps l's decisions
// as its never-written prefix and appends its own after them, so neither
// the clone nor its sends copy l's decisions: a clone and its sends cost
// the same at any log length. Cloning a clone that has decisions of its own
// first joins its two segments, once, as Decisions does.
func (l *DecisionLog) Clone() *DecisionLog {
	d := l.Decisions()
	return &DecisionLog{prefix: d[:len(d):len(d)], events: l.events}
}

// reserve makes room for about n more decisions, so that capturing them
// moves no storage. The search sizes each log once from its candidate's
// script, which a mutant's run can outgrow by a few decisions (a changed
// delay can bring a receipt, and the sends it triggers, before the
// horizon), so reserve adds a sixteenth and four. Results never depend on
// it.
func (l *DecisionLog) reserve(n int) {
	if n <= 0 {
		return
	}
	n += n/16 + 4
	if n > cap(l.own)-len(l.own) {
		own := make([]Decision, len(l.own), len(l.own)+n)
		copy(own, l.own)
		l.own = own
	}
}

// OnAction implements the engine Observer interface: dispatched events
// (init, timer, recv — everything but the send actions emitted from inside
// them) advance the event counter stamped onto decisions.
func (l *DecisionLog) OnAction(a trace.Action) {
	if a.Kind != trace.KindSend {
		l.events++
	}
}

// OnSend implements the engine Observer interface: every send is one delay
// decision, captured at the moment the adversary fixed it.
func (l *DecisionLog) OnSend(rec trace.MsgRecord) {
	if rec.Dropped {
		// A dropped message carries no delay decision: the fault layer
		// removed it before the adversary priced it, so there is nothing
		// to replay or mutate.
		return
	}
	l.own = append(l.own, Decision{Key: rec.Key, Delay: rec.Delay, Event: l.events})
}

// OnDeliver implements the engine Observer interface (no-op).
func (l *DecisionLog) OnDeliver(trace.MsgRecord) {}

// Len returns the number of captured decisions.
func (l *DecisionLog) Len() int { return len(l.prefix) + len(l.own) }

// Decisions returns the captured decisions in send order, as one contiguous
// slice. A clone with decisions of its own joins its two segments into
// storage of its own on the first call, once; every later call, and every
// call on a log with one segment, returns the stored decisions as they are.
// The caller must not modify the returned slice.
func (l *DecisionLog) Decisions() []Decision {
	if len(l.prefix) == 0 {
		return l.own
	}
	if len(l.own) > 0 {
		joined := append(make([]Decision, 0, l.Len()), l.prefix...)
		l.own, l.prefix = append(joined, l.own...), nil
		return l.own
	}
	return l.prefix
}

// Script converts the captured run into a replayable delay script.
func (l *DecisionLog) Script() map[trace.MsgKey]rat.Rat {
	out := make(map[trace.MsgKey]rat.Rat, l.Len())
	for _, seg := range [2][]Decision{l.prefix, l.own} {
		for _, d := range seg {
			out[d.Key] = d.Delay
		}
	}
	return out
}

// String returns a short summary for debugging.
func (l *DecisionLog) String() string {
	return fmt.Sprintf("decisionlog(%d decisions)", l.Len())
}
