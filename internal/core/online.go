// Online (streaming) counterparts of the post-hoc checkers: observers that
// maintain running skew and validity metrics while an engine runs, in
// O(nodes²) state and with no trace retention.
//
// Exactness. Every logical clock L_i is piecewise linear in real time, with
// breakpoints only at logical-clock declarations (Runtime.SetLogical) and at
// hardware rate-schedule breakpoints. The maximum of |L_i − L_j| over an
// interval on which both clocks are linear is attained at the interval's
// endpoints, so a tracker that evaluates every pair at every breakpoint of
// either clock — from the left and from the right — computes exactly the
// same maxima as the post-hoc checkers over a recorded execution. The
// trackers subscribe to declarations through the engine's ClockObserver
// extension, process the (statically known) rate breakpoints lazily in time
// order, and close out the final interval at each horizon notification.
//
// Same-time subtleties are handled to match the compiled piecewise clocks:
// several declarations by one node at the same instant collapse to the last
// one (intermediate values never exist in the compiled clock, so they are
// not counted here either), and right-limit evaluations are deferred until
// time advances so that all nodes' same-instant declarations are seen
// together.
//
// Cost. The SkewTracker evaluates pairs in sweeps: one node against every
// other at one instant. Sweeps read clock values from per-instant vectors,
// so each node's clock is evaluated once per instant for the left limits,
// which hold for the whole instant, and once more for the right limits only
// if the node declared there (a flush, clone-and-swap or lane change
// mid-instant re-reads the vectors). On the tick lane (online_fixed.go) a
// sweep is then one integer subtraction and compare per pair.
package core

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// rateBreak is one merged hardware-schedule breakpoint: the set of nodes
// whose rate changes at this real time.
type rateBreak struct {
	at    rat.Rat
	nodes []int
}

// mergedBreaks collects every schedule's interior rate breakpoints, sorted
// by time, grouped by equal times.
func mergedBreaks(scheds []*clock.Schedule) []rateBreak {
	var out []rateBreak
	for i, s := range scheds {
		for _, seg := range s.RatesView()[1:] {
			out = append(out, rateBreak{at: seg.At, nodes: []int{i}})
		}
	}
	// Insertion-style sort + merge: schedules are small; exact comparison.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].at.Less(out[j-1].at); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:0]
	for _, b := range out {
		if n := len(merged); n > 0 && merged[n-1].at.Equal(b.at) {
			merged[n-1].nodes = append(merged[n-1].nodes, b.nodes...)
			continue
		}
		merged = append(merged, b)
	}
	return merged
}

// Value-vector states (SkewTracker.prepare): which limits at the current
// instant vals and ratVals hold.
const (
	valsStale = iota
	valsLeft  // just before the instant, under the declarations then in effect
	valsRight // at the instant, under the current declarations
)

// ratMax is a pair maximum held as rationals: one that left the tick grid,
// or any maximum on the rat lane.
type ratMax struct {
	skew, at rat.Rat
	set      bool
}

// ratVal is one node's clock value at the current instant on the rat lane.
type ratVal struct {
	v  rat.Rat
	ok bool
}

// SkewTracker is an engine observer maintaining the running global skew,
// local (distance-1) skew, and per-pair worst skew of a streaming run. State
// is O(nodes²) and independent of event count. Attach it with
// Engine.Observe before the first step; read results any time — they are
// exact through the last horizon notification (or explicit Flush).
type SkewTracker struct {
	net    *network.Network
	scheds []*clock.Schedule
	n      int

	cur  []trace.Decl // current declaration per node
	left []trace.Decl // declaration in effect just before cur.Real

	breaks    []rateBreak
	nextBreak int

	pending rat.Rat // the current instant: time of the last processed notification
	dirty   []int   // nodes whose post-state at pending awaits right-limit eval
	isDirty []bool

	// Running maxima. pairT is symmetric n×n: pair (i, j)'s worst
	// |L_i − L_j| in ticks, or noTick while the pair is unset or held in
	// pairR (allocated when a maximum first leaves the grid). pairAtT[i*n+j],
	// i < j, is the witness time in ticks. global and local index the entry
	// of the first pair to reach the current extreme (-1: unset), so their
	// values are read from that pair.
	pairT   []int64
	pairAtT []int64
	pairR   []ratMax
	global  int
	local   int

	// onPair, when set, fires whenever pair (i, j)'s running maximum
	// increases (i < j). GradientTracker uses it for first-violation
	// detection.
	onPair func(i, j int)

	// Clock values at the current instant (see prepare): vals in ticks
	// (noTick off the grid), ratVals on demand for pairs off the grid.
	vstate  int
	vals    []int64
	ratVals []ratVal

	// Tick lane (online_fixed.go): scale > 0 after AdoptFixedLane.
	scale     int64
	fscheds   []*clock.FixedSchedule
	curT      []declTicks
	leftT     []declTicks
	pendingT  int64
	pendingOK bool

	err error
}

// NewSkewTracker returns a tracker for a run over net with the given
// hardware schedules (one per node).
func NewSkewTracker(net *network.Network, scheds []*clock.Schedule) (*SkewTracker, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	n := net.N()
	if len(scheds) != n {
		return nil, fmt.Errorf("core: %d schedules for %d nodes", len(scheds), n)
	}
	st := &SkewTracker{
		net:     net,
		scheds:  scheds,
		n:       n,
		cur:     make([]trace.Decl, n),
		left:    make([]trace.Decl, n),
		isDirty: make([]bool, n),
		breaks:  mergedBreaks(scheds),
		pairT:   make([]int64, n*n),
		pairAtT: make([]int64, n*n),
		global:  -1,
		local:   -1,
	}
	for i := range st.pairT {
		st.pairT[i] = noTick
	}
	for i := 0; i < n; i++ {
		st.cur[i] = trace.StartDecl(i)
		st.left[i] = st.cur[i]
	}
	return st, nil
}

// OnAction implements the engine Observer interface (no-op: skew depends
// only on declarations, rate breaks, and the horizon).
func (st *SkewTracker) OnAction(trace.Action) {}

// OnSend implements the engine Observer interface (no-op).
func (st *SkewTracker) OnSend(trace.MsgRecord) {}

// OnDeliver implements the engine Observer interface (no-op).
func (st *SkewTracker) OnDeliver(trace.MsgRecord) {}

// setInstant makes t, past every processed notification, the current
// instant.
func (st *SkewTracker) setInstant(t rat.Rat) {
	st.pending = t
	st.pendingT, st.pendingOK = fixed.FromRat(t, st.scale)
	st.vstate = valsStale
}

// declaredNow reports whether node j's current declaration was made at the
// current instant: a tick compare whenever the instant is on the grid.
func (st *SkewTracker) declaredNow(j int) bool {
	if st.pendingOK {
		return st.curT[j].at == st.pendingT
	}
	return st.cur[j].Real.Equal(st.pending)
}

// prepare readies the value vectors for a sweep at the current instant,
// from the left or the right. The left limits hold for the whole instant;
// the right limits differ from them only at nodes that declared at it, so
// turning left into right re-evaluates just those nodes.
func (st *SkewTracker) prepare(left bool) {
	want := valsRight
	if left {
		want = valsLeft
	}
	if st.vstate == want {
		return
	}
	declaredOnly := st.vstate == valsLeft
	st.vstate = want
	for j := 0; j < st.n; j++ {
		now := st.declaredNow(j)
		if declaredOnly && !now {
			continue
		}
		if st.ratVals != nil {
			st.ratVals[j].ok = false
		}
		if st.pendingOK {
			dt := st.curT[j]
			if left && now {
				dt = st.leftT[j]
			}
			st.vals[j] = st.logicalAtT(dt, j)
		}
	}
}

// ratValue returns node j's clock value at the current instant on the rat
// lane, evaluated at most once per prepare.
func (st *SkewTracker) ratValue(j int, left bool) rat.Rat {
	if st.ratVals == nil {
		st.ratVals = make([]ratVal, st.n)
	}
	if rv := &st.ratVals[j]; !rv.ok {
		d := st.cur[j]
		if left && st.declaredNow(j) {
			d = st.left[j]
		}
		rv.v = d.ValueAt(st.scheds[j].HW(st.pending))
		rv.ok = true
	}
	return st.ratVals[j].v
}

// sweep folds |L_k − L_j| at the current instant into the running maxima
// for every j ≠ k from `from` on, with limits from the left or the right.
// Pairs whose clocks both read on the tick grid compare in ticks against row
// k of pairT; the rest take the rat lane.
func (st *SkewTracker) sweep(k, from int, left bool) {
	st.prepare(left)
	n := st.n
	if !st.pendingOK || st.vals[k] == noTick {
		for j := from; j < n; j++ {
			if j != k {
				st.ratPair(k, j, left)
			}
		}
		return
	}
	vk, vals, row := st.vals[k], st.vals[:n], st.pairT[k*n:k*n+n]
	for j := from; j < n; j++ {
		switch vj := vals[j]; {
		case j == k:
		case vj == noTick:
			st.ratPair(k, j, left)
		default:
			d := vk - vj // no overflow: logicalAtT bounds values by tickLimit
			if d < 0 {
				d = -d
			}
			if d > row[j] {
				st.raiseT(k, j, d)
			}
		}
	}
}

// ratPair evaluates pair (k, j) at the current instant on the rat lane.
func (st *SkewTracker) ratPair(k, j int, left bool) {
	st.updatePair(k, j, st.ratValue(k, left).Sub(st.ratValue(j, left)).Abs())
}

// updatePair folds a rat-lane evaluation of pair (i, j) at the current
// instant into its running maximum, held in ticks whenever it fits the grid.
func (st *SkewTracker) updatePair(i, j int, val rat.Rat) {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	if st.pendingOK {
		if d, ok := fixed.FromRat(val, st.scale); ok {
			if d > st.pairT[idx] {
				st.raiseT(i, j, d)
			}
			return
		}
	}
	if (st.pairT[idx] != noTick || st.pairR != nil && st.pairR[idx].set) && !val.Greater(st.skewR(idx)) {
		return
	}
	if st.pairR == nil {
		st.pairR = make([]ratMax, st.n*st.n)
	}
	st.pairR[idx] = ratMax{skew: val, at: st.pending, set: true}
	st.pairT[idx], st.pairT[j*st.n+i] = noTick, noTick
	st.raised(i, j)
}

// raised folds pair (i, j)'s increased maximum into the global and local
// extremes and reports it to onPair.
func (st *SkewTracker) raised(i, j int) {
	idx := i*st.n + j
	if st.outranks(idx, st.global) {
		st.global = idx
	}
	if st.outranks(idx, st.local) && st.net.Dist(i, j).Equal(rat.FromInt(1)) {
		st.local = idx
	}
	if st.onPair != nil {
		st.onPair(i, j)
	}
}

// outranks reports whether pair entry a's running maximum strictly exceeds
// entry b's (b < 0: an unset extreme, worth zero).
func (st *SkewTracker) outranks(a, b int) bool {
	if b < 0 {
		return st.skewR(a).Sign() > 0
	}
	if va, vb := st.pairT[a], st.pairT[b]; va != noTick && vb != noTick {
		return va > vb
	}
	return st.skewR(a).Greater(st.skewR(b))
}

// skewR and atR build pair entry idx's running maximum and its witness time
// as rationals (zero while unset).
func (st *SkewTracker) skewR(idx int) rat.Rat {
	if v := st.pairT[idx]; v != noTick {
		return fixed.ToRat(v, st.scale)
	}
	if st.pairR != nil {
		return st.pairR[idx].skew
	}
	return rat.Rat{}
}

func (st *SkewTracker) atR(idx int) rat.Rat {
	if st.pairT[idx] != noTick {
		return fixed.ToRat(st.pairAtT[idx], st.scale)
	}
	if st.pairR != nil {
		return st.pairR[idx].at
	}
	return rat.Rat{}
}

// markDirty defers node k's right-limit evaluation until time advances.
func (st *SkewTracker) markDirty(k int) {
	if !st.isDirty[k] {
		st.isDirty[k] = true
		st.dirty = append(st.dirty, k)
	}
}

// advance moves the tracker's clock from pending to t > pending: it flushes
// deferred right-limit evaluations at pending, then processes every
// hardware rate breakpoint in (pending, t].
func (st *SkewTracker) advance(t rat.Rat) {
	for _, k := range st.dirty {
		st.isDirty[k] = false
		st.sweep(k, 0, false)
	}
	st.dirty = st.dirty[:0]
	reached := false
	for st.nextBreak < len(st.breaks) && st.breaks[st.nextBreak].at.LessEq(t) {
		br := st.breaks[st.nextBreak]
		st.nextBreak++
		if !br.at.Greater(st.pending) {
			continue
		}
		// No declaration has landed at br.at yet, so left limits are the
		// values under the current declarations — and at br.at == t they are
		// exactly the left limits that t's declarations will read.
		st.setInstant(br.at)
		reached = br.at.Equal(t)
		for _, k := range br.nodes {
			st.sweep(k, 0, true)
			// A declaration may still land at exactly this time; re-check the
			// post-state once time moves past it.
			if reached {
				st.markDirty(k)
			}
		}
	}
	if !reached {
		st.setInstant(t)
	}
}

// OnDeclare implements the engine ClockObserver interface: it evaluates the
// affected pairs at the declaration instant from the left, and defers the
// right-limit evaluation until time advances (so that several same-instant
// declarations are seen together, exactly like the compiled clocks).
func (st *SkewTracker) OnDeclare(d trace.Decl) {
	if st.err != nil {
		return
	}
	switch c := d.Real.Cmp(st.pending); {
	case c < 0:
		st.err = fmt.Errorf("core: declaration at %s behind tracker time %s (observer attached mid-run or flushed ahead?)", d.Real, st.pending)
		return
	case c > 0:
		st.advance(d.Real)
	}
	i := d.Node
	st.sweep(i, 0, true)
	if !st.declaredNow(i) {
		st.left[i] = st.cur[i]
		if st.scale > 0 {
			st.leftT[i] = st.curT[i]
		}
	}
	st.cur[i] = d
	if st.scale > 0 {
		st.curT[i] = st.declTicksOf(d)
	}
	st.markDirty(i)
}

// Flush advances the tracker through time t and evaluates every pair at t,
// closing out the interval maxima exactly. Results are exact for the window
// [0, t] afterwards. Monotone: t must not precede an earlier flush or
// declaration.
func (st *SkewTracker) Flush(t rat.Rat) {
	if st.err != nil {
		return
	}
	if t.Less(st.pending) {
		st.err = fmt.Errorf("core: flush at %s behind tracker time %s", t, st.pending)
		return
	}
	if t.Greater(st.pending) {
		st.advance(t)
	}
	for k := 0; k < st.n; k++ {
		st.sweep(k, k+1, false)
	}
	// The all-pairs evaluation covers every deferred right-limit at t.
	for _, k := range st.dirty {
		st.isDirty[k] = false
	}
	st.dirty = st.dirty[:0]
}

// OnHorizon implements the engine HorizonObserver interface: RunUntil and
// RunFor flush the tracker at each completed horizon automatically.
func (st *SkewTracker) OnHorizon(t rat.Rat) { st.Flush(t) }

// Err reports a tracker-consistency failure (observer attached or flushed
// out of order); results are unreliable when non-nil.
func (st *SkewTracker) Err() error { return st.err }

// Time returns the time through which the tracker has processed
// notifications.
func (st *SkewTracker) Time() rat.Rat { return st.pending }

// Global returns the running global skew: the worst |L_i − L_j| over all
// pairs and all processed times, with one witness pair and time.
func (st *SkewTracker) Global() PairSkew {
	if st.global < 0 {
		return PairSkew{}
	}
	return st.Pair(st.global/st.n, st.global%st.n)
}

// Local returns the running local skew: the worst |L_i − L_j| over
// distance-1 pairs.
func (st *SkewTracker) Local() PairSkew {
	if st.local < 0 {
		return PairSkew{}
	}
	return st.Pair(st.local/st.n, st.local%st.n)
}

// Pair returns the running worst skew for one pair.
func (st *SkewTracker) Pair(i, j int) PairSkew {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	return PairSkew{I: i, J: j, Dist: st.net.Dist(i, j), Skew: st.skewR(idx), At: st.atR(idx)}
}

// Profile returns the running empirical gradient profile f̂(d) = max skew
// among pairs at each distinct distance, mirroring SkewProfile on a
// recorded execution.
func (st *SkewTracker) Profile() []ProfilePoint {
	byDist := map[string]*ProfilePoint{}
	var order []string
	st.net.Pairs(func(i, j int) {
		d := st.net.Dist(i, j)
		key := d.Key()
		p, ok := byDist[key]
		if !ok {
			p = &ProfilePoint{Dist: d}
			byDist[key] = p
			order = append(order, key)
		}
		p.Pairs++
		if v := st.skewR(i*st.n + j); v.Greater(p.MaxSkew) {
			p.MaxSkew = v
		}
	})
	out := make([]ProfilePoint, 0, len(byDist))
	for _, key := range order {
		out = append(out, *byDist[key])
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dist.Less(out[j-1].Dist); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// GradientTracker is a SkewTracker that additionally checks Requirement 2
// (the f-gradient property) online: it records the first moment any pair's
// skew exceeds f(d(i,j)), which lets a streaming driver stop a run on the
// first violation instead of scanning a recorded trace afterwards.
type GradientTracker struct {
	*SkewTracker
	f         GradientFunc
	allowed   []rat.Rat // f(d) per pair, upper triangle
	violation *PairSkew
}

// NewGradientTracker returns a tracker checking |L_i − L_j| <= f(d(i,j))
// online.
func NewGradientTracker(net *network.Network, scheds []*clock.Schedule, f GradientFunc) (*GradientTracker, error) {
	st, err := NewSkewTracker(net, scheds)
	if err != nil {
		return nil, err
	}
	gt := &GradientTracker{SkewTracker: st, f: f, allowed: make([]rat.Rat, st.n*st.n)}
	net.Pairs(func(i, j int) {
		gt.allowed[i*st.n+j] = f(net.Dist(i, j))
	})
	st.onPair = gt.observePair
	return gt, nil
}

// observePair checks a pair's increased maximum against f, in ticks when
// both sides are on the grid.
func (gt *GradientTracker) observePair(i, j int) {
	if gt.violation != nil {
		return
	}
	idx := i*gt.n + j
	allowed := gt.allowed[idx]
	if v := gt.pairT[idx]; v != noTick {
		if a, ok := fixed.FromRat(allowed, gt.scale); ok && v <= a {
			return
		}
	}
	if gt.skewR(idx).Greater(allowed) {
		v := gt.Pair(i, j)
		v.Allowed = allowed
		gt.violation = &v
	}
}

// Violated reports whether some pair has exceeded its allowed skew.
func (gt *GradientTracker) Violated() bool { return gt.violation != nil }

// Violation returns the first recorded violation.
func (gt *GradientTracker) Violation() (PairSkew, bool) {
	if gt.violation == nil {
		return PairSkew{}, false
	}
	return *gt.violation, true
}

// Report summarizes the check exactly like CheckGradient on a recorded
// execution: OK, the pair with the largest skew/allowed ratio, and the
// number of pairs examined. Call after a flush (or horizon) for results
// exact through that time.
func (gt *GradientTracker) Report() GradientReport {
	rep := GradientReport{OK: true}
	var worstRatio float64
	gt.net.Pairs(func(i, j int) {
		rep.Checked++
		idx := i*gt.n + j
		allowed := gt.allowed[idx]
		val := gt.skewR(idx)
		ratio := val.Float64() / allowed.Float64()
		if val.Greater(allowed) {
			rep.OK = false
		}
		if ratio > worstRatio {
			worstRatio = ratio
			rep.Worst = PairSkew{I: i, J: j, Dist: gt.net.Dist(i, j), Skew: val, At: gt.atR(idx), Allowed: allowed}
		}
	})
	return rep
}

// ValidityTracker checks Requirement 1 (validity) online: every logical
// clock must advance at effective rate >= 1/2 and never jump down. It is the
// streaming counterpart of CheckValidity, reporting the first violation.
type ValidityTracker struct {
	scheds  []*clock.Schedule
	cur     []trace.Decl
	leftVal []rat.Rat // left-limit logical value at cur.Real
	err     error
}

// NewValidityTracker returns a tracker for nodes with the given hardware
// schedules.
func NewValidityTracker(scheds []*clock.Schedule) *ValidityTracker {
	n := len(scheds)
	vt := &ValidityTracker{
		scheds:  scheds,
		cur:     make([]trace.Decl, n),
		leftVal: make([]rat.Rat, n),
	}
	for i := range vt.cur {
		vt.cur[i] = trace.StartDecl(i)
	}
	return vt
}

// OnAction implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnAction(trace.Action) {}

// OnSend implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnSend(trace.MsgRecord) {}

// OnDeliver implements the engine Observer interface (no-op).
func (vt *ValidityTracker) OnDeliver(trace.MsgRecord) {}

// minRateIn returns the minimum schedule rate in effect anywhere in the
// half-open window [from, to) — exactly the rates that multiply a
// declaration closed out at `to` in the compiled clock.
func minRateIn(s *clock.Schedule, from, to rat.Rat) rat.Rat {
	rates := s.RatesView()
	var mn rat.Rat
	first := true
	for i, seg := range rates {
		if seg.At.GreaterEq(to) {
			break
		}
		if i+1 < len(rates) && rates[i+1].At.LessEq(from) {
			continue
		}
		if first || seg.Rate.Less(mn) {
			mn = seg.Rate
			first = false
		}
	}
	return mn
}

// closeOut verifies node i's current declaration over [cur.Real, to): the
// deferred jump at cur.Real and the effective rate across every hardware
// rate segment the declaration spans. closed selects the closed window
// [cur.Real, to], matching the final-horizon semantics of the post-hoc
// checker (which includes the rate in effect at the end of the window).
func (vt *ValidityTracker) closeOut(i int, to rat.Rat, closed bool) {
	if vt.err != nil {
		return
	}
	cur := vt.cur[i]
	// Deferred jump check at cur.Real: the final same-instant declaration's
	// value against the left limit. The implicit starting declaration has
	// Value == leftVal == 0, so it never trips.
	if jump := cur.Value.Sub(vt.leftVal[i]); jump.Sign() < 0 {
		vt.err = fmt.Errorf("core: node %d logical clock jumps down by %s", i, jump.Neg())
		return
	}
	var mn rat.Rat
	switch {
	case closed:
		mn = vt.scheds[i].MinRate(cur.Real, to)
	case to.Greater(cur.Real):
		mn = minRateIn(vt.scheds[i], cur.Real, to)
	default:
		return
	}
	if eff := cur.Mult.Mul(mn); eff.Less(ValidityRate) {
		vt.err = fmt.Errorf("core: node %d logical rate %s < 1/2 violates validity", i, eff)
	}
}

// OnDeclare implements the engine ClockObserver interface.
func (vt *ValidityTracker) OnDeclare(d trace.Decl) {
	if vt.err != nil {
		return
	}
	i := d.Node
	if d.Real.Greater(vt.cur[i].Real) {
		vt.closeOut(i, d.Real, false)
		vt.leftVal[i] = vt.cur[i].ValueAt(vt.scheds[i].HW(d.Real))
	}
	// Same-instant re-declaration replaces the current one; the left limit
	// is unchanged and intermediate values never exist in the compiled
	// clock.
	vt.cur[i] = d
}

// Flush verifies every node's open declaration through time t.
func (vt *ValidityTracker) Flush(t rat.Rat) {
	for i := range vt.cur {
		vt.closeOut(i, t, true)
	}
}

// OnHorizon implements the engine HorizonObserver interface.
func (vt *ValidityTracker) OnHorizon(t rat.Rat) { vt.Flush(t) }

// Err returns the first validity violation, or nil — the online equivalent
// of CheckValidity on the recorded execution.
func (vt *ValidityTracker) Err() error { return vt.err }
