// Campaign: the search driven one generation at a time.
//
// Search runs plan → execute → merge each round: enumerate the beam's
// mutations (plan), evaluate every candidate on the worker pool (execute),
// and reduce by argmax with ties broken on candidate index (merge). A
// Campaign exposes that loop one generation per Step, so a driver can report
// between generations (`gcssearch run` streams one progress event per Step);
// Search is the same loop with nothing in between.
package search

import (
	"fmt"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ScriptEntry is one delay-script binding in JSON form: the message identity
// and the scripted delay. EncodeScript orders entries by (From, To, Seq) so
// equal scripts encode identically.
type ScriptEntry struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Seq   uint64  `json:"seq"`
	Delay rat.Rat `json:"delay"`
}

// EncodeScript converts a delay script into its canonical JSON form, sorted
// by (From, To, Seq). A nil or empty script encodes as nil.
func EncodeScript(script map[trace.MsgKey]rat.Rat) []ScriptEntry {
	if len(script) == 0 {
		return nil
	}
	keys := scriptKeys(script)
	out := make([]ScriptEntry, len(keys))
	for i, k := range keys {
		out[i] = ScriptEntry{From: k.From, To: k.To, Seq: k.Seq, Delay: script[k]}
	}
	return out
}

// Campaign is a worst-case search driven generation by generation.
// NewCampaign validates options and stages the initial generation (base +
// seeds); each Step evaluates the pending generation, merges it into the
// beam and stages the next; Result reads the outcome once Done.
type Campaign struct {
	opt Options

	pending []candidate
	round   int // 0 = initial generation (base + seeds)

	beam      []evaluation
	best      evaluation
	baseline  rat.Rat
	seen      map[string]bool
	nextID    int
	mutRounds int // mutation generations enumerated (≤ opt.Rounds)
	rounds    int // mutation generations evaluated (Result.Rounds)
	evaluated int

	engineSteps    uint64
	candidateSteps uint64

	done bool
}

// NewCampaign validates opt, fills defaults, and stages the initial
// generation: the unmutated base (candidate 0) plus every seed.
func NewCampaign(opt Options) (*Campaign, error) {
	if err := normalize(&opt); err != nil {
		return nil, err
	}
	n := opt.Net.N()
	initial := []candidate{{id: 0, rates: make([]rat.Rat, n)}}
	for _, s := range opt.Seeds {
		initial = append(initial, candidate{
			id:     len(initial),
			script: s.Script,
			rates:  make([]rat.Rat, n),
			scheds: s.Schedules,
		})
	}
	seen := make(map[string]bool, len(initial))
	for _, c := range initial {
		seen[string(key(nil, c, scriptKeys(c.script)))] = true
	}
	return &Campaign{
		opt:     opt,
		pending: initial,
		seen:    seen,
		nextID:  len(initial),
	}, nil
}

// Done reports whether the campaign has converged (or failed): no pending
// generation remains and Result is readable.
func (c *Campaign) Done() bool { return c.done }

// Round returns the pending generation's round index (0 = base + seeds).
func (c *Campaign) Round() int { return c.round }

// NumPending returns the number of candidates awaiting evaluation.
func (c *Campaign) NumPending() int { return len(c.pending) }

// Evaluated returns the number of candidate evaluations merged so far.
func (c *Campaign) Evaluated() int { return c.evaluated }

// BestValue returns the best objective value merged so far (zero before the
// first Step).
func (c *Campaign) BestValue() rat.Rat { return c.best.value }

// Step evaluates the pending generation and merges it: round zero fixes the
// baseline, every round re-reduces the beam, and the greedy fixpoint or the
// round budget ends the campaign; a round that goes on records each
// candidate that newly took a beam place. A failed evaluation ends the
// campaign with the generation's lowest-ID failure, worded by what failed:
// the base run, a seed, or a mutation candidate; so does a failed recording.
func (c *Campaign) Step() error {
	if c.done {
		return fmt.Errorf("search: campaign already finished")
	}
	evals, dispatched := evalAll(c.opt, c.pending)
	full := fullSteps(evals)
	c.engineSteps += dispatched
	c.candidateSteps += full
	c.evaluated += len(evals)
	if m := c.opt.Metrics; m != nil {
		m.Generations.Inc()
		m.Candidates.Add(uint64(len(evals)))
		m.EngineSteps.Add(dispatched)
		m.CandidateSteps.Add(full)
		if full > dispatched {
			m.PrefixSavedSteps.Add(full - dispatched)
		}
	}

	// Candidates are pending in ID order, so the first failure is the
	// lowest-ID one.
	for _, ev := range evals {
		if ev.err == nil {
			continue
		}
		c.done = true
		switch {
		case c.round > 0:
			return fmt.Errorf("search: candidate %d: %w", ev.cand.id, ev.err)
		case ev.cand.id == 0:
			return fmt.Errorf("search: base run: %w", ev.err)
		default:
			return fmt.Errorf("search: seed %q: %w", c.opt.Seeds[ev.cand.id-1].Name, ev.err)
		}
	}

	if c.round == 0 {
		c.baseline = evals[0].value // the base is candidate 0
	} else {
		c.rounds++
	}
	// Only the generation's top-Beam can enter the beam. Each entry is copied
	// out of evals, so the rest of the generation is garbage once Step
	// returns.
	top := reduce(evals, c.opt.Beam)
	pool := make([]evaluation, 0, len(c.beam)+len(top))
	pool = append(append(pool, c.beam...), top...)
	beam := reduce(pool, c.opt.Beam)
	if c.round > 0 && !beam[0].value.Greater(c.best.value) {
		c.done = true // no round improvement: greedy fixpoint
		return nil
	}
	for i := range beam {
		if err := c.record(&beam[i]); err != nil {
			c.done = true
			return err
		}
	}
	c.beam, c.best = beam, beam[0]
	c.advance()
	return nil
}

// record makes ev, new to the beam, a beam parent: it runs the candidate
// once more, from scratch with a decision log attached, and the replay must
// reach its evaluation's value and witness, forked or not, so
// fork-versus-scratch equivalence is checked on every candidate the search
// builds on. The entry keeps the log, its own rates and schedule set
// (schedOverride applies a window mutant's swap), and no script or lineage:
// a parent's mutations take their script from its log and their schedules
// from its scheds, so a window mutant kept with its lineage would hand its
// delay mutants the un-swapped schedules of its own parent.
func (c *Campaign) record(ev *evaluation) error {
	if ev.log != nil {
		return nil // kept from an earlier generation
	}
	log := NewDecisionLog()
	rep := evaluate(c.opt, ev.cand, log)
	if m := c.opt.Metrics; m != nil {
		m.RecordSteps.Add(rep.steps)
	}
	w, v := rep.witness, ev.witness
	switch {
	case rep.err != nil:
		return fmt.Errorf("search: candidate %d: recording replay: %w", ev.cand.id, rep.err)
	case !rep.value.Equal(ev.value) || w.I != v.I || w.J != v.J || !w.Skew.Equal(v.Skew) || !w.At.Equal(v.At):
		return fmt.Errorf("search: candidate %d: its recording replay reached %s (pair %d,%d at t=%s), its evaluation %s (pair %d,%d at t=%s)",
			ev.cand.id, rep.value, w.I, w.J, w.At, ev.value, v.I, v.J, v.At)
	}
	*ev = evaluation{
		cand:    candidate{id: ev.cand.id, rates: ev.cand.rates, scheds: schedOverride(ev.cand)},
		value:   ev.value,
		witness: ev.witness,
		log:     log,
	}
	return nil
}

// advance enumerates the next mutation generation off the merged beam, or
// finishes the campaign when the round budget is spent or no unseen mutation
// remains. Each parent's realized script is built once, here: its mutants
// share it, its trunk replays it, and its sorted keys order their keys.
func (c *Campaign) advance() {
	if c.mutRounds >= c.opt.Rounds {
		c.pending = nil
		c.done = true
		return
	}
	var cands []candidate
	var buf []byte
	for _, parent := range c.beam {
		script := parent.log.Script()
		order := scriptKeys(script)
		for _, m := range mutations(c.opt, parent, script) {
			buf = key(buf[:0], m, order)
			if c.seen[string(buf)] {
				continue
			}
			c.seen[string(buf)] = true
			m.id = c.nextID
			c.nextID++
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		c.pending = nil
		c.done = true
		return
	}
	c.mutRounds++
	c.round++
	c.pending = cands
}

// Result returns the outcome once the campaign is Done.
func (c *Campaign) Result() (*Result, error) {
	if !c.done {
		return nil, fmt.Errorf("search: campaign not finished (round %d pending)", c.round)
	}
	if c.best.log == nil {
		return nil, fmt.Errorf("search: campaign finished without a best candidate")
	}
	return &Result{
		Objective:      c.opt.Objective,
		Baseline:       c.baseline,
		Best:           c.best.value,
		BestCandidate:  c.best.cand.id,
		Witness:        c.best.witness,
		Script:         c.best.log.Script(),
		Rates:          c.best.cand.rates,
		Schedules:      effectiveScheds(c.opt, c.best.cand),
		Rounds:         c.rounds,
		Evaluated:      c.evaluated,
		EngineSteps:    c.engineSteps,
		CandidateSteps: c.candidateSteps,
	}, nil
}
