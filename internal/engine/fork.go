package engine

import (
	"errors"
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Fork returns an independent engine positioned at the exact point of this
// run: same dispatched history, same pending events, same per-node state.
// Driving the fork forward is byte-identical to driving the original — until
// their adversaries diverge (see SetAdversary), which is the point: a shared
// execution prefix is simulated once, then branched.
//
// The fork clones everything mutable — the event queue, the per-pair
// message sequence counters, the scheduling sequence, each node's Runtime
// (hardware reading, current logical-clock declaration), and each node
// automaton via the Protocol's CloneState contract — as a handful of bulk
// slab copies rather than element-wise deep clones: the queue's
// slab/heap/free arrays copy in three memmoves and the runtimes, plain
// values, in one. No history is copied — a Recorder keeps that, and its
// Clone shares it — so a fork costs the same however long the run has
// been. The immutable environment — the network, the hardware schedules,
// ρ — is shared. A stateless adversary is inherited by reference; a
// StatefulAdversary is cloned via CloneAdversary so trunk and fork decide
// from independent state, and an adversary that observes the run without
// being cloneable fails the fork with a precise error (sharing it would
// silently corrupt both branches). Message payloads queued in flight are
// shared too: payloads must be value-determined and never mutated after
// Send, which the Message contract already demands.
//
// The fork starts with no observers (the cloned adversary's own feedback
// hook rebinds automatically — it is not part of the observer lists). To
// continue online metrics across the fork point, Clone the trackers that
// watched the prefix (SkewTracker.Clone, Recorder.Clone, ...) and attach the
// clones with Observe before driving the fork: a fresh observer sees only
// the fork's own events.
//
// Fork must be called between steps, never from inside an observer or node
// callback, and fails on an engine already poisoned by an error.
func (e *Engine) Fork() (*Engine, error) {
	if e.err != nil {
		return nil, fmt.Errorf("engine: fork of failed engine: %w", e.err)
	}
	adv, ok := CloneAdversaryState(e.adv)
	if !ok {
		return nil, fmt.Errorf("engine: fork with stateful adversary %T that is not cloneable (it — or, for a scripted wrapper, its Fallback tail — observes the run without a usable CloneAdversary; implement StatefulAdversary on the value that owns the state)", e.adv)
	}
	n := e.net.N()
	f := &Engine{
		net:     e.net,
		scheds:  e.scheds,
		proto:   e.proto,
		rho:     e.rho,
		seq:     e.seq,
		now:     e.now,
		horizon: e.horizon,
		steps:   e.steps,
		met:     e.met, // forks aggregate into the parent's instruments

		// The fixed lane is immutable environment: the compiled schedules
		// are shared, the tick clock copies. Queued events' tick keys and
		// cached hardware readings ride along in the slab copy below — a
		// fork re-derives nothing the trunk already computed.
		lane:      e.lane,
		scale:     e.scale,
		fscheds:   e.fscheds,
		nowTick:   e.nowTick,
		nowTickOK: e.nowTickOK,
	}
	if e.met != nil {
		e.met.Forks.Inc()
	}
	f.bindAdversary(adv)
	f.queue.cloneFrom(&e.queue)
	f.pairSeq = append([]uint64(nil), e.pairSeq...)

	// Runtimes are values: one slab copy, then each is rebound to the fork.
	f.runtimes = append([]Runtime(nil), e.runtimes...)
	for i := range f.runtimes {
		f.runtimes[i].eng = f
	}
	if bc, ok := e.proto.(BulkCloneProtocol); ok {
		f.nodes = bc.CloneStates(e.nodes)
		if len(f.nodes) != n {
			return nil, fmt.Errorf("engine: protocol %s CloneStates returned %d nodes for %d", e.proto.Name(), len(f.nodes), n)
		}
		for i, node := range f.nodes {
			if node == nil {
				return nil, fmt.Errorf("engine: protocol %s CloneStates returned nil for node %d", e.proto.Name(), i)
			}
		}
		return f, nil
	}
	f.nodes = make([]Node, n)
	for i := 0; i < n; i++ {
		node := e.proto.CloneState(e.nodes[i])
		if node == nil {
			return nil, fmt.Errorf("engine: protocol %s CloneState returned nil for node %d", e.proto.Name(), i)
		}
		f.nodes[i] = node
	}
	return f, nil
}

// NextEventTime returns the real time of the earliest pending event; ok is
// false when the queue is empty (every node idle, nothing in flight). The
// prefix-cached search uses it to fork a rate mutant at exactly the first
// event at/after its mutated window's start, without dispatching anything.
func (e *Engine) NextEventTime() (rat.Rat, bool) {
	if e.queue.Len() == 0 {
		return rat.Rat{}, false
	}
	return e.queue.slab[e.queue.top()].time, true
}

// SwapSchedule replaces node's hardware rate schedule mid-run. The new
// schedule must satisfy the engine's drift bound and agree with the current
// one on [0, Now()) — everything already dispatched must have happened
// identically under it — and from there on it is authoritative: queued timer
// events of the node re-derive their firing times from their hardware-clock
// targets through the new schedule (the target reading is the timer's source
// of truth — see SetTimerAtHW), queued deliveries to the node keep their
// real times (send + delay is schedule-independent) and re-derive the cached
// hardware reading, and the queue re-establishes its order under the moved
// times. Driving the engine afterwards is byte-identical to a fresh run that
// used the new schedule from time 0: the prefix agrees by the precondition,
// and the suffix sees exactly the re-derived values a fresh run would have
// computed.
//
// On the fixed-point lane the swapped schedule is recompiled onto the tick
// grid. If it does not fit (the detected scale saw only the old schedules),
// the node's slot stays empty and its readings and timer times fall back to
// rationals one by one, as any off-grid value does; every other node stays
// on ticks, and TimeLane still reads "fixed". Arithmetic changes, results do
// not. Combined with Fork this is the paper's schedule surgery made
// incremental: fork the shared prefix, swap in the mutated schedule, and
// only the suffix re-simulates. lowerbound.MainTheorem resumes each round
// this way.
func (e *Engine) SwapSchedule(node int, s *clock.Schedule) error {
	if e.err != nil {
		return fmt.Errorf("engine: SwapSchedule on failed engine: %w", e.err)
	}
	if node < 0 || node >= e.net.N() {
		return fmt.Errorf("engine: SwapSchedule of invalid node %d", node)
	}
	if s == nil {
		return errors.New("engine: SwapSchedule with nil schedule")
	}
	if err := s.ValidateDrift(e.rho); err != nil {
		return fmt.Errorf("engine: SwapSchedule node %d: %w", node, err)
	}
	if !s.AgreesBefore(e.scheds[node], e.now) {
		return fmt.Errorf("engine: SwapSchedule node %d: schedule diverges from the current one before now=%s, invalidating dispatched history", node, e.now)
	}
	// Copy on write: scheds (and fscheds below) are shared with the engine
	// this one was forked from — never mutate them in place.
	scheds := append([]*clock.Schedule(nil), e.scheds...)
	scheds[node] = s
	e.scheds = scheds
	if e.scale > 0 {
		fscheds := append([]*clock.FixedSchedule(nil), e.fscheds...)
		fscheds[node], _ = s.CompileFixed(e.scale)
		e.fscheds = fscheds
	}
	q := &e.queue
	moved := false
	for _, idx := range q.heap {
		ev := &q.slab[idx]
		if ev.node != node {
			continue
		}
		switch {
		case ev.hwTarget:
			// Timer: the hardware target is authoritative; re-derive the
			// firing time through the new schedule. Pending events are
			// at/after the divergence window, so it never lands before Now().
			real, tick, tickOK, err := e.realAt(node, ev.hw)
			if err != nil {
				err = fmt.Errorf("engine: SwapSchedule node %d timer target %s: %w", node, ev.hw, err)
				e.fail(err)
				return err
			}
			ev.time, ev.tick, ev.tickOK = real, tick, tickOK
			moved = true
		case ev.kind == trace.KindRecv:
			// Delivery: real time is authoritative and schedule-independent;
			// only the cached hardware reading re-derives.
			ev.hw = e.hwAt(node, ev.time, ev.tick, ev.tickOK)
		}
	}
	if moved {
		// Timer times moved: re-establish the heap bottom-up. The order is a
		// strict total order (seq tie-breaker), so any correct heap pops the
		// same sequence — full re-heapify cannot perturb determinism.
		for i := len(q.heap)/2 - 1; i >= 0; i-- {
			q.down(i)
		}
	}
	if e.met != nil {
		e.met.ScheduleSwaps.Inc()
	}
	return nil
}

// SetAdversary replaces the engine's delay adversary. Decisions already made
// are fixed (their deliveries sit in the queue); only future sends consult
// the new adversary. Combined with Fork this branches a run: fork the shared
// prefix, hand each fork its own adversary, and drive the suffixes
// independently.
//
// An adversary with observer feedback hooks is rebound to the event stream
// from this point on (it sees nothing retroactively); the previous
// adversary's hooks are detached. Like NewEngine, SetAdversary performs no
// up-front decision validation — a CheckedAdversary that cannot decide a
// later message (e.g. a ScriptedAdversary with an exhausted script and nil
// Fallback) fails the run at that send with its precise DelayChecked error.
func (e *Engine) SetAdversary(a Adversary) error {
	if a == nil {
		return errors.New("engine: nil adversary")
	}
	e.bindAdversary(a)
	return nil
}
