// Campaign: the search exposed as a resumable generation state machine, the
// seam the distributed coordinator (internal/dist) shards across processes.
//
// Search runs plan → execute → merge each round: enumerate the beam's
// mutations (plan), evaluate every candidate (execute), reduce by argmax
// with ties broken on candidate index (merge). A Campaign makes those steps
// separately drivable: the caller pulls the pending generation, evaluates
// any partition of it — locally via EvaluateRange, or remotely by shipping
// the wire-form Generation to a worker that calls EvaluateShard — and feeds
// the per-shard results back through Absorb, in any order. Because the
// reduction is a strict total order (value descending, candidate index
// ascending) and every shard returns at least its own top-Beam evaluations,
// the merged outcome is byte-identical to single-pool Search for any shard
// layout, any shard count, and any arrival order; only the EngineSteps
// measurement varies (a parent prefix shared across shards replays once per
// shard instead of once overall).
//
// Wire form: Generation, Candidate, ShardResult, and CandidateEval are
// plain-data views — delay scripts as sorted ScriptEntry lists, hardware
// schedules as clock.RateSeg segments, decision logs via the DecisionLog
// JSON codec — so a coordinator and a worker that agree on Options rebuild
// identical evaluation inputs from JSON alone.
package search

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ScriptEntry is one delay-script binding in wire form: the message identity
// and the scripted delay. EncodeScript orders entries by (From, To, Seq) so
// equal scripts encode identically.
type ScriptEntry struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Seq   uint64  `json:"seq"`
	Delay rat.Rat `json:"delay"`
}

// EncodeScript converts a delay script into its canonical wire form, sorted
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

// DecodeScript rebuilds a delay script from its wire form. A nil or empty
// entry list decodes to nil, matching EncodeScript.
func DecodeScript(entries []ScriptEntry) map[trace.MsgKey]rat.Rat {
	if len(entries) == 0 {
		return nil
	}
	out := make(map[trace.MsgKey]rat.Rat, len(entries))
	for _, e := range entries {
		out[trace.MsgKey{From: e.From, To: e.To, Seq: e.Seq}] = e.Delay
	}
	return out
}

// EncodeSchedules converts hardware schedules into their rate-segment wire
// form. nil encodes as nil (meaning: the base schedules apply).
func EncodeSchedules(scheds []*clock.Schedule) [][]clock.RateSeg {
	if scheds == nil {
		return nil
	}
	out := make([][]clock.RateSeg, len(scheds))
	for i, s := range scheds {
		out[i] = s.Rates()
	}
	return out
}

// DecodeSchedules rebuilds hardware schedules from rate segments; exact
// rational segments reconstruct the original schedules bit for bit.
func DecodeSchedules(segs [][]clock.RateSeg) ([]*clock.Schedule, error) {
	if segs == nil {
		return nil, nil
	}
	out := make([]*clock.Schedule, len(segs))
	for i, s := range segs {
		sched, err := clock.FromRates(s)
		if err != nil {
			return nil, fmt.Errorf("search: schedule %d: %w", i, err)
		}
		out[i] = sched
	}
	return out, nil
}

// Candidate is the wire-form description of one candidate of a generation:
// everything a worker needs to rebuild the internal candidate and evaluate
// it, including the prefix lineage for fork-based evaluation.
type Candidate struct {
	// ID is the global discovery index — the argmax tie-breaker.
	ID int `json:"id"`
	// Script is the candidate's delay script over the base tail.
	Script []ScriptEntry `json:"script,omitempty"`
	// Rates are per-node constant-rate overrides (zero = base schedule).
	Rates []rat.Rat `json:"rates"`
	// Schedules, when non-nil, is a full base-schedule override (seeds and
	// windowed mutants).
	Schedules [][]clock.RateSeg `json:"schedules,omitempty"`
	// Parent indexes Generation.Parents for prefix-lineage mutants (-1:
	// evaluate from scratch); DivIdx/DivEvent locate a delay mutant's first
	// diverging decision.
	Parent   int    `json:"parent"`
	DivIdx   int    `json:"div_idx,omitempty"`
	DivEvent uint64 `json:"div_event,omitempty"`
	// SwapSched, when non-empty, marks a rate-window mutant: node SwapNode's
	// schedule is replaced by SwapSched, which agrees with the parent's on
	// [0, DivTime) — the worker forks the parent's trunk at the first event
	// at/after DivTime and swaps the schedule into the fork. Note Schedules
	// above still carries the candidate's fully materialized schedule set
	// (swap applied), so evaluated candidates round-trip without lineage.
	SwapNode  int             `json:"swap_node,omitempty"`
	SwapSched []clock.RateSeg `json:"swap_sched,omitempty"`
	DivTime   rat.Rat         `json:"div_time"`
}

// Generation is one campaign round's pending work in wire form: the distinct
// parent decision logs the round's delay mutants fork from, plus every
// candidate. Candidates keep enumeration order, so a contiguous [lo, hi)
// range is a deterministic shard.
type Generation struct {
	Round      int            `json:"round"`
	Parents    []*DecisionLog `json:"parents,omitempty"`
	Candidates []Candidate    `json:"candidates"`
}

// CandidateEval is one evaluated candidate in wire form: the objective
// value, its witness, the realized decision log (the next round's mutation
// substrate and, for the winner, the replay script), and the candidate's
// schedule bookkeeping (needed to enumerate its mutations).
type CandidateEval struct {
	ID        int               `json:"id"`
	Value     rat.Rat           `json:"value"`
	Witness   core.PairSkew     `json:"witness"`
	Rates     []rat.Rat         `json:"rates"`
	Schedules [][]clock.RateSeg `json:"schedules,omitempty"`
	Log       *DecisionLog      `json:"log"`
}

// ShardResult is one shard's evaluation outcome. Top holds the shard's best
// min(Beam, evaluated) candidates by (value desc, ID asc) — plus candidate 0
// when the shard contains it, so the round-zero baseline always survives the
// merge. Dispatched counts engine events this shard actually dispatched
// (trunk replays included; shard-layout dependent), FullSteps the
// from-scratch execution lengths (shard-layout invariant). ErrID/ErrMsg
// carry the lowest-ID evaluation failure, -1 when none.
type ShardResult struct {
	Top        []CandidateEval `json:"top,omitempty"`
	Evaluated  int             `json:"evaluated"`
	Dispatched uint64          `json:"dispatched"`
	FullSteps  uint64          `json:"full_steps"`
	ErrID      int             `json:"err_id"`
	ErrMsg     string          `json:"err_msg,omitempty"`

	// err preserves the original error object on the local path so Search
	// wraps it unchanged; wire shards reconstruct from ErrMsg.
	err error
}

// shardErr returns the shard's evaluation failure as an error, preferring
// the preserved local error object.
func (sr *ShardResult) shardErr() error {
	if sr.ErrID < 0 {
		return nil
	}
	if sr.err != nil {
		return sr.err
	}
	return fmt.Errorf("%s", sr.ErrMsg)
}

// Campaign is a worst-case search driven generation by generation: the
// resumable state the distributed coordinator holds between shard
// dispatches. NewCampaign validates options and stages the initial
// generation (base + seeds); the caller then loops: evaluate the pending
// generation in any partition (EvaluateRange locally, EvaluateShard on a
// worker), Absorb the shard results, and read the merged outcome off
// Result once Done. Search is exactly this loop with one shard.
type Campaign struct {
	opt   Options
	notes []string

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
	notes, err := normalize(&opt)
	if err != nil {
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
		seen[string(key(nil, c, nil))] = true
	}
	return &Campaign{
		opt:     opt,
		notes:   notes,
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

// Evaluated returns the number of candidate evaluations absorbed so far.
func (c *Campaign) Evaluated() int { return c.evaluated }

// BestValue returns the best objective value merged so far (zero before the
// first Absorb).
func (c *Campaign) BestValue() rat.Rat { return c.best.value }

// Shardable reports whether the pending work may be partitioned across
// evaluators. A stateful, non-cloneable Base forces the serial fallback —
// one shared adversary instance seeing every run in candidate order — which
// no shard layout but the trivial one preserves.
func (c *Campaign) Shardable() bool { return !c.opt.serialEval }

// Generation exports the pending generation in wire form. The export is
// deterministic: parents are listed in first-reference order and candidates
// in enumeration order, so coordinator and worker agree on [lo, hi) shard
// meaning by construction.
func (c *Campaign) Generation() *Generation {
	gen := &Generation{Round: c.round, Candidates: make([]Candidate, 0, len(c.pending))}
	parentIdx := make(map[*DecisionLog]int)
	for _, cd := range c.pending {
		p := -1
		if cd.parent != nil {
			var ok bool
			p, ok = parentIdx[cd.parent]
			if !ok {
				p = len(gen.Parents)
				parentIdx[cd.parent] = p
				gen.Parents = append(gen.Parents, cd.parent)
			}
		}
		wc := Candidate{
			ID:        cd.id,
			Script:    EncodeScript(cd.script),
			Rates:     append([]rat.Rat(nil), cd.rates...),
			Schedules: EncodeSchedules(cd.scheds),
			Parent:    p,
			DivIdx:    cd.divIdx,
			DivEvent:  cd.divEvent,
		}
		if cd.swapSched != nil {
			wc.SwapNode = cd.swapNode
			wc.SwapSched = cd.swapSched.Rates()
			wc.DivTime = cd.divTime
		}
		gen.Candidates = append(gen.Candidates, wc)
	}
	return gen
}

// EvaluateRange evaluates the contiguous pending-candidate range [lo, hi)
// locally — the coordinator-side shard evaluator, and the fallback a failed
// remote shard degrades to. The range indices match the wire Generation's
// candidate order exactly.
func (c *Campaign) EvaluateRange(lo, hi int) (*ShardResult, error) {
	if lo < 0 || hi < lo || hi > len(c.pending) {
		return nil, fmt.Errorf("search: shard range [%d, %d) outside pending generation of %d", lo, hi, len(c.pending))
	}
	evals, dispatched := evalAll(c.opt, c.pending[lo:hi])
	return buildShard(c.opt, evals, dispatched), nil
}

// EvaluateShard is the worker-side evaluator: rebuild the shard's candidates
// from the wire generation and run the same prefix-cached evaluation
// EvaluateRange runs. opt must describe the same campaign the coordinator
// holds (internal/dist reconstructs it from the campaign spec); Seeds are
// ignored — the coordinator materialized them into round-zero candidates.
func EvaluateShard(opt Options, gen *Generation, lo, hi int) (*ShardResult, error) {
	if _, err := normalize(&opt); err != nil {
		return nil, err
	}
	if opt.serialEval {
		return nil, fmt.Errorf("search: base adversary %T is stateful but not cloneable; the serial fallback cannot be sharded", opt.Base)
	}
	if gen == nil {
		return nil, fmt.Errorf("search: nil generation")
	}
	if lo < 0 || hi < lo || hi > len(gen.Candidates) {
		return nil, fmt.Errorf("search: shard range [%d, %d) outside generation of %d", lo, hi, len(gen.Candidates))
	}
	cands := make([]candidate, 0, hi-lo)
	for _, wc := range gen.Candidates[lo:hi] {
		scheds, err := DecodeSchedules(wc.Schedules)
		if err != nil {
			return nil, fmt.Errorf("search: candidate %d: %w", wc.ID, err)
		}
		cd := candidate{
			id:     wc.ID,
			script: DecodeScript(wc.Script),
			rates:  append([]rat.Rat(nil), wc.Rates...),
			scheds: scheds,
		}
		if wc.Parent >= 0 {
			if wc.Parent >= len(gen.Parents) {
				return nil, fmt.Errorf("search: candidate %d references parent %d of %d", wc.ID, wc.Parent, len(gen.Parents))
			}
			cd.parent = gen.Parents[wc.Parent]
			cd.divIdx = wc.DivIdx
			cd.divEvent = wc.DivEvent
		}
		if len(wc.SwapSched) > 0 {
			ss, err := clock.FromRates(wc.SwapSched)
			if err != nil {
				return nil, fmt.Errorf("search: candidate %d swap schedule: %w", wc.ID, err)
			}
			if wc.SwapNode < 0 || wc.SwapNode >= opt.Net.N() {
				return nil, fmt.Errorf("search: candidate %d swaps schedule of invalid node %d", wc.ID, wc.SwapNode)
			}
			cd.swapNode = wc.SwapNode
			cd.swapSched = ss
			cd.divTime = wc.DivTime
		}
		cands = append(cands, cd)
	}
	evals, dispatched := evalAll(opt, cands)
	return buildShard(opt, evals, dispatched), nil
}

// buildShard condenses a batch of evaluations into the wire result: the
// shard-local top-Beam (plus candidate 0, the baseline), aggregate step
// counts, and the lowest-ID failure.
func buildShard(opt Options, evals []evaluation, dispatched uint64) *ShardResult {
	sr := &ShardResult{
		Evaluated:  len(evals),
		Dispatched: dispatched,
		FullSteps:  fullSteps(evals),
		ErrID:      -1,
	}
	ok := make([]evaluation, 0, len(evals))
	for _, ev := range evals {
		if ev.err != nil {
			if sr.ErrID < 0 || ev.cand.id < sr.ErrID {
				sr.ErrID = ev.cand.id
				sr.ErrMsg = ev.err.Error()
				sr.err = ev.err
			}
			continue
		}
		ok = append(ok, ev)
	}
	top := reduce(append([]evaluation(nil), ok...), opt.Beam)
	keepBase := false
	for _, ev := range ok {
		if ev.cand.id == 0 {
			keepBase = true
			for _, t := range top {
				if t.cand.id == 0 {
					keepBase = false
					break
				}
			}
			if keepBase {
				top = append(top, ev)
			}
			break
		}
	}
	for _, ev := range top {
		sr.Top = append(sr.Top, CandidateEval{
			ID:      ev.cand.id,
			Value:   ev.value,
			Witness: ev.witness,
			Rates:   append([]rat.Rat(nil), ev.cand.rates...),
			// Materialize the swap (schedOverride) so a beam entry decoded on
			// the coordinator carries the candidate's true schedule set — the
			// substrate its own mutations enumerate from — without lineage.
			Schedules: EncodeSchedules(schedOverride(ev.cand)),
			Log:       ev.log,
		})
	}
	return sr
}

// Absorb merges the pending generation's shard results — any partition, any
// order — and advances the campaign: round zero fixes the baseline, every
// round re-reduces the beam, and the greedy fixpoint or round budget ends
// the campaign. The shards must cover the pending generation exactly; a
// candidate evaluation failure surfaces as the same error single-pool
// Search would return.
func (c *Campaign) Absorb(results []*ShardResult) error {
	if c.done {
		return fmt.Errorf("search: campaign already finished")
	}
	covered := 0
	for _, sr := range results {
		covered += sr.Evaluated
	}
	if covered != len(c.pending) {
		return fmt.Errorf("search: shard results cover %d of %d pending candidates", covered, len(c.pending))
	}
	for _, sr := range results {
		c.engineSteps += sr.Dispatched
		c.candidateSteps += sr.FullSteps
	}
	c.evaluated += len(c.pending)
	if m := c.opt.Metrics; m != nil {
		m.Generations.Inc()
		m.Candidates.Add(uint64(len(c.pending)))
		for _, sr := range results {
			m.absorbShard(sr)
		}
	}

	if err := c.firstError(results); err != nil {
		c.done = true
		return err
	}

	pool := append([]evaluation(nil), c.beam...)
	for _, sr := range results {
		for _, ce := range sr.Top {
			ev, err := decodeEval(ce)
			if err != nil {
				c.done = true
				return err
			}
			pool = append(pool, ev)
		}
	}

	if c.round == 0 {
		base, found := evaluation{}, false
		for _, ev := range pool {
			if ev.cand.id == 0 {
				base, found = ev, true
				break
			}
		}
		if !found {
			c.done = true
			return fmt.Errorf("search: shard results dropped the base candidate")
		}
		c.baseline = base.value
		c.beam = reduce(pool, c.opt.Beam)
		c.best = c.beam[0]
		c.advance()
		return nil
	}

	c.rounds++
	c.beam = reduce(pool, c.opt.Beam)
	if !c.beam[0].value.Greater(c.best.value) {
		c.done = true // no round improvement: greedy fixpoint
		return nil
	}
	c.best = c.beam[0]
	c.advance()
	return nil
}

// firstError maps the lowest-ID shard failure onto single-pool Search's
// error shape: base run, seed, or candidate.
func (c *Campaign) firstError(results []*ShardResult) error {
	errID := -1
	var errCause error
	for _, sr := range results {
		if sr.ErrID >= 0 && (errID < 0 || sr.ErrID < errID) {
			errID = sr.ErrID
			errCause = sr.shardErr()
		}
	}
	if errID < 0 {
		return nil
	}
	if c.round == 0 {
		if errID == 0 {
			return fmt.Errorf("search: base run: %w", errCause)
		}
		return fmt.Errorf("search: seed %q: %w", c.opt.Seeds[errID-1].Name, errCause)
	}
	return fmt.Errorf("search: candidate %d: %w", errID, errCause)
}

// decodeEval rebuilds a beam entry from its wire form.
func decodeEval(ce CandidateEval) (evaluation, error) {
	scheds, err := DecodeSchedules(ce.Schedules)
	if err != nil {
		return evaluation{}, fmt.Errorf("search: evaluated candidate %d: %w", ce.ID, err)
	}
	if ce.Log == nil {
		return evaluation{}, fmt.Errorf("search: evaluated candidate %d has no decision log", ce.ID)
	}
	return evaluation{
		cand:    candidate{id: ce.ID, rates: ce.Rates, scheds: scheds},
		value:   ce.Value,
		witness: ce.Witness,
		log:     ce.Log,
	}, nil
}

// advance enumerates the next mutation generation off the merged beam, or
// finishes the campaign when the round budget is spent or no unseen mutation
// remains.
func (c *Campaign) advance() {
	if c.mutRounds >= c.opt.Rounds {
		c.pending = nil
		c.done = true
		return
	}
	var cands []candidate
	var buf []byte
	for _, parent := range c.beam {
		order := scriptKeys(parent.log.Script())
		for _, m := range mutations(c.opt, parent) {
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

// Result returns the merged outcome once the campaign is Done. The Result is
// byte-identical to single-pool Search in every field except EngineSteps,
// which counts what this campaign's shard layout actually dispatched.
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
		Notes:          c.notes,
	}, nil
}
