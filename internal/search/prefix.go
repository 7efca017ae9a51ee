// Prefix-cached candidate evaluation: the scheduler that turns shared
// decision-script prefixes into shared execution.
//
// A delay mutant differs from its parent only from one captured decision on;
// everything before that decision — and therefore every engine event before
// the event that realizes it — is byte-identical to the parent's run. The
// scheduler exploits this by grouping each round's delay mutants by parent,
// replaying the parent's script once on a "trunk" engine, stepping the trunk
// to just before each mutant's diverging event (mutants are processed in
// divergence order, so the trunk advances monotonically and is replayed at
// most once per parent), and forking there: Engine.Fork clones the engine,
// the online trackers are Cloned alongside, the fork gets the mutant's
// script as its adversary, and only the suffix is simulated.
//
// Equivalence to from-scratch evaluation is structural: the fork point lies
// strictly before the first diverging decision, the forked state equals what
// the mutant's own run would have reached (the executions are identical up
// to there), and the cloned trackers carry the prefix metrics. Tests assert
// byte-identical Results against DisablePrefixCache for every worker count.
//
// Window mutants (rate surgery over [from, to)) share the same trunk: their
// schedule agrees with the parent's on [0, from), so everything before the
// first event at/after `from` is byte-identical to the parent's run. The
// scheduler forks the trunk at exactly that moment — Engine.NextEventTime
// tells it when, without dispatching anything — and swaps the mutated
// schedule into the fork (Engine.SwapSchedule), which re-derives queued
// timer times from their hardware targets through the new schedule; the
// cloned skew tracker swaps alongside. Whole-run rate mutants and seeds
// change hardware schedules from time zero, so they share no prefix and
// evaluate from scratch on the same worker pool.
//
// Stateful tail adversaries (engine.StatefulAdversary) are fork-safe: every
// trunk and every from-scratch evaluation runs against an independent clone
// of the Base's initial state, and a fork inherits Engine.Fork's clone of
// the trunk tail's state at the fork point — exactly the state a full
// re-simulation of that candidate would have reached there, preserving the
// byte-identical-to-resim guarantee. normalize refuses a stateful Base that
// cannot be cloned.
package search

import (
	"sort"
	"sync"

	"gcs/internal/core"
	"gcs/internal/engine"
)

// evalAll evaluates every candidate on a bounded worker pool and returns the
// evaluations (indexed by candidate position, so no scheduling
// nondeterminism can leak into the reduction) plus the number of engine
// events actually dispatched — trunk replays included.
func evalAll(opt Options, cands []candidate) ([]evaluation, uint64) {
	results := make([]evaluation, len(cands))

	// Partition: delay mutants group by parent log, everything else is
	// from-scratch work.
	var scratch []int
	groups := make(map[*DecisionLog][]int)
	var order []*DecisionLog
	for i, c := range cands {
		if opt.DisablePrefixCache || c.parent == nil {
			scratch = append(scratch, i)
			continue
		}
		if _, ok := groups[c.parent]; !ok {
			order = append(order, c.parent)
		}
		groups[c.parent] = append(groups[c.parent], i)
	}

	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f()
		}()
	}

	for _, i := range scratch {
		i := i
		spawn(func() { results[i] = evaluate(opt, cands[i]) })
	}
	trunkSteps := make([]uint64, len(order))
	for gi, plog := range order {
		gi, plog := gi, plog
		idxs := append([]int(nil), groups[plog]...)
		// Divergence order: the trunk only ever steps forward.
		sort.Slice(idxs, func(a, b int) bool {
			if cands[idxs[a]].divEvent != cands[idxs[b]].divEvent {
				return cands[idxs[a]].divEvent < cands[idxs[b]].divEvent
			}
			return idxs[a] < idxs[b]
		})
		spawn(func() { trunkSteps[gi] = runTrunk(opt, cands, idxs, plog, results, spawn) })
	}
	wg.Wait()

	var dispatched uint64
	for _, ev := range results {
		dispatched += ev.cost
	}
	for _, s := range trunkSteps {
		dispatched += s
	}
	return results, dispatched
}

// runTrunk replays one parent's execution and forks a suffix evaluation for
// each of its delay and window mutants, in divergence order. Delay mutants
// fork just before their diverging event; window mutants fork at the first
// event at/after their mutated window's start, with the mutated schedule
// swapped into the fork (and into the cloned tracker). Both orderings are
// monotone, so the trunk only ever steps forward and is replayed at most
// once per parent. It returns the number of events the trunk itself
// dispatched.
func runTrunk(opt Options, cands []candidate, idxs []int, plog *DecisionLog, results []evaluation, spawn func(func())) uint64 {
	var delays, wins []int
	for _, i := range idxs {
		if cands[i].swapSched != nil {
			wins = append(wins, i)
		} else {
			delays = append(delays, i)
		}
	}
	sort.Slice(delays, func(a, b int) bool {
		if cands[delays[a]].divEvent != cands[delays[b]].divEvent {
			return cands[delays[a]].divEvent < cands[delays[b]].divEvent
		}
		return delays[a] < delays[b]
	})
	sort.Slice(wins, func(a, b int) bool {
		if c := cands[wins[a]].divTime.Cmp(cands[wins[b]].divTime); c != 0 {
			return c < 0
		}
		return wins[a] < wins[b]
	})
	di, wi := 0, 0
	failRest := func(err error) {
		for _, i := range delays[di:] {
			results[i] = evaluation{cand: cands[i], err: err}
		}
		for _, i := range wins[wi:] {
			results[i] = evaluation{cand: cands[i], err: err}
		}
	}
	scheds := trunkScheds(opt, cands[idxs[0]])
	skew, err := core.NewSkewTracker(opt.Net, scheds)
	if err != nil {
		failRest(err)
		return 0
	}
	log := NewDecisionLog(opt.Net)
	trunk, err := engine.New(opt.Net,
		engine.WithProtocol(opt.Protocol),
		engine.WithAdversary(engine.ScriptedAdversary{Delays: plog.Script(), Fallback: baseTail(opt)}),
		engine.WithSchedules(scheds),
		engine.WithRho(opt.Rho),
		engine.WithObservers(skew, log),
		engine.WithMetrics(opt.EngineMetrics),
		engine.WithLane(opt.lane),
	)
	if err != nil {
		failRest(err)
		return 0
	}
	// dispatchFork branches candidate i off the trunk's current state and
	// spawns its suffix evaluation. The fork's adversary is Fork's own clone
	// of the trunk's scripted adversary — its tail carries the decision state
	// accumulated over the shared prefix. Rebind the mutant's script over
	// that tail, not over a pristine Base: a full re-simulation of this
	// candidate would have evolved the very same tail state by this event.
	// A window mutant additionally swaps its mutated schedule into the fork
	// and the cloned tracker — re-deriving queued timer times from their
	// hardware targets — before anything of the suffix runs.
	dispatchFork := func(i int) {
		c := cands[i]
		fork, err := trunk.Fork()
		if err != nil {
			results[i] = evaluation{cand: c, err: err}
			return
		}
		fskew := skew.Clone()
		if c.swapSched != nil {
			if err := fork.SwapSchedule(c.swapNode, c.swapSched); err != nil {
				results[i] = evaluation{cand: c, err: err}
				return
			}
			if err := fskew.SwapSchedule(c.swapNode, c.swapSched); err != nil {
				results[i] = evaluation{cand: c, err: err}
				return
			}
		}
		tail := baseTail(opt)
		if sc, ok := fork.Adversary().(engine.ScriptedAdversary); ok && sc.Fallback != nil {
			tail = sc.Fallback
		}
		if err := fork.SetAdversary(engine.ScriptedAdversary{Delays: c.script, Fallback: tail}); err != nil {
			results[i] = evaluation{cand: c, err: err}
			return
		}
		flog := log.Clone()
		fork.Observe(fskew, flog)
		prefix := fork.Steps()
		spawn(func() { results[i] = finish(opt, c, fork, fskew, flog, prefix) })
	}
	for di < len(delays) || wi < len(wins) {
		// Fork every window mutant whose divergence has arrived: the next
		// pending event is at/after its window start (or the queue is idle),
		// so nothing of its diverging suffix has been dispatched yet.
		for wi < len(wins) {
			if nt, ok := trunk.NextEventTime(); ok && nt.Less(cands[wins[wi]].divTime) {
				break
			}
			dispatchFork(wins[wi])
			wi++
		}
		// Fork every delay mutant positioned just before its diverging event.
		for di < len(delays) {
			target := cands[delays[di]].divEvent
			if target > 0 {
				target-- // replay everything before the diverging event
			}
			if trunk.Steps() < target && trunk.Pending() > 0 {
				break
			}
			dispatchFork(delays[di])
			di++
		}
		if di >= len(delays) && wi >= len(wins) {
			break
		}
		ok, err := trunk.Step()
		if err != nil {
			failRest(err)
			return trunk.Steps()
		}
		if err := skew.Err(); err != nil {
			failRest(err)
			return trunk.Steps()
		}
		if !ok {
			// Parent queue drained early: every remaining mutant forks from
			// the idle state.
			for ; wi < len(wins); wi++ {
				dispatchFork(wins[wi])
			}
			for ; di < len(delays); di++ {
				dispatchFork(delays[di])
			}
		}
	}
	return trunk.Steps()
}

// finish drives a forked engine to the horizon and reads the objective off
// its cloned tracker — the suffix half of an evaluation. prefix is the event
// count inherited from the trunk, excluded from the evaluation's own cost.
func finish(opt Options, cand candidate, eng *engine.Engine, skew *core.SkewTracker, log *DecisionLog, prefix uint64) evaluation {
	ev := evaluation{cand: cand}
	if err := eng.RunUntil(opt.Duration); err != nil {
		ev.err = err
		return ev
	}
	if err := skew.Err(); err != nil {
		ev.err = err
		return ev
	}
	ev.log = log
	ev.steps = eng.Steps()
	ev.cost = eng.Steps() - prefix
	ev.value, ev.witness = objectiveValue(opt, skew)
	return ev
}

// evaluate re-simulates one candidate from scratch and reads the objective
// off the online trackers.
func evaluate(opt Options, cand candidate) evaluation {
	scheds := effectiveScheds(opt, cand)
	skew, err := core.NewSkewTracker(opt.Net, scheds)
	if err != nil {
		return evaluation{cand: cand, err: err}
	}
	log := NewDecisionLog(opt.Net)
	adv := engine.ScriptedAdversary{Delays: cand.script, Fallback: baseTail(opt)}
	eng, err := engine.New(opt.Net,
		engine.WithProtocol(opt.Protocol),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(opt.Rho),
		engine.WithObservers(skew, log),
		engine.WithMetrics(opt.EngineMetrics),
		engine.WithLane(opt.lane),
	)
	if err != nil {
		return evaluation{cand: cand, err: err}
	}
	return finish(opt, cand, eng, skew, log, 0)
}
