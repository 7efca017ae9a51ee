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
// The search is replay-based: candidates run with no decision log, and each
// one that newly takes a beam place runs once more from scratch with a
// DecisionLog observer attached, which captures every per-message delay
// decision as a replayable script (saved, when it is saved, as
// EncodeScript's sorted entries). Candidate mutations edit one decision
// (delay snapped to {0, bound/2, bound}), one node's whole-run rate (flipped
// within ±ρ), or one node's rate over a window (clock.ModifyWindow surgery),
// with a ScriptedAdversary tail handling decisions beyond the script. Every
// mutant of a beam parent shares the parent's script, built once per
// generation and never written: rate and window mutants run on it as it is,
// and a delay mutant carries only its one changed decision, laid over the
// script as a one-entry ScriptedAdversary.
//
// Evaluation is prefix-cached: two candidates sharing a decision-script
// prefix share the prefix execution, exactly the structure of the Fan &
// Lynch constructions (perturb a base execution at chosen points, keep the
// prefix indistinguishable). Each round groups the beam's delay mutants by
// parent, replays the shared parent prefix once on a trunk engine, forks the
// engine (Engine.Fork + SkewTracker.Clone) at each mutant's first diverging
// decision, and evaluates only the suffix; window mutants fork the same
// trunk at their window's start. Whole-run rate mutants change hardware
// schedules from time zero, so they — and injected Seeds — are evaluated
// from scratch. The fork-based evaluation is byte-identical to full
// re-simulation: tests assert it, and each beam entry's replay must reach
// its evaluation's value and witness, or the campaign fails.
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
// Engine.Observe before the first step to capture the complete run; a log
// attached to a fork counts events from the fork point. The search attaches
// one only to the replay that records a new beam entry.
type DecisionLog struct {
	decisions []Decision
	events    uint64 // dispatched events seen so far
}

// NewDecisionLog returns an empty log; it reads everything it records off
// the engine's MsgRecord and action streams.
func NewDecisionLog() *DecisionLog {
	return &DecisionLog{}
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
	l.decisions = append(l.decisions, Decision{Key: rec.Key, Delay: rec.Delay, Event: l.events})
}

// OnDeliver implements the engine Observer interface (no-op).
func (l *DecisionLog) OnDeliver(trace.MsgRecord) {}

// Len returns the number of captured decisions.
func (l *DecisionLog) Len() int { return len(l.decisions) }

// Decisions returns the captured decisions in send order. The caller must
// not modify the returned slice.
func (l *DecisionLog) Decisions() []Decision { return l.decisions }

// Script converts the captured run into a replayable delay script.
func (l *DecisionLog) Script() map[trace.MsgKey]rat.Rat {
	out := make(map[trace.MsgKey]rat.Rat, len(l.decisions))
	for _, d := range l.decisions {
		out[d.Key] = d.Delay
	}
	return out
}

// String returns a short summary for debugging.
func (l *DecisionLog) String() string {
	return fmt.Sprintf("decisionlog(%d decisions)", l.Len())
}
