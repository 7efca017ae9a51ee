// Tick lane for the SkewTracker (see internal/fixed): when the engine's
// scale detection lands the run on a common tick grid, the engine hands the
// scale to every attached observer implementing AdoptFixedLane, and the
// tracker holds its declarations, its per-instant clock values, and every
// pair maximum with its witness time in int64 ticks; the global and local
// extremes are indices into those maxima. A sweep — the tracker's
// O(n)-per-declaration hot path — compares each pair's tick difference
// against row k of the symmetric pair matrix, and rationals are built only
// when a result is read (Global, Local, Pair, Profile,
// GradientTracker.Report) or a value leaves the grid. Any value off the grid
// falls back to exact rational arithmetic for that value alone (a maximum it
// sets is held as a rational until a larger one overtakes it), so results
// are byte-identical to the pure rat lane, witnesses included, on whatever
// grid the tracker adopted first; it never changes grids. On the
// gcsperf stream workload (drifting lines of 65-257 nodes, shared 2-core
// Xeon host) this layout, against per-pair clock evaluation with rational
// maxima, cut pass_s from 1.82 to 0.77 s (medians of 10 alternating pairs)
// and the tracker's traced time per pass from 1.51-1.61 to 0.34-0.59 s.

package core

import (
	"math"

	"gcs/internal/clock"
	"gcs/internal/fixed"
	"gcs/internal/trace"
)

// noTick marks a tick value off the grid, and a pair maximum that is unset
// or held as a rational. tickLimit bounds the magnitude of clock values held
// in ticks.
const (
	noTick    = math.MinInt64
	tickLimit = 1 << 62
)

// declTicks mirrors one logical-clock declaration on the tick grid:
// L(t) = val + (multP/multQ)·(H(t) − hw0), declared at real time at; all
// times and values in ticks. ok=false means an off-grid value component, so
// every evaluation under it takes the rat lane; at is noTick when the
// declaration time itself is off the grid.
type declTicks struct {
	at           int64
	val, hw0     int64
	multP, multQ int64
	ok           bool
}

// AdoptFixedLane implements the engine's fixed-lane observer extension: the
// engine calls it with its detected tick scale (0 when the run stays on the
// rat lane) when the tracker is attached. A tracker without a grid adopts a
// positive scale: it compiles its schedule mirrors onto it (a schedule that
// does not compile leaves its slot nil, and that node's values take the rat
// lane) and builds the tick mirrors of its current declarations. Maxima
// already held as rationals stay valid on any grid. A tracker keeps the first
// grid it adopts and ignores later calls, since per-value fallback keeps its
// results exact on any grid; one that never adopts runs on the rat lane,
// byte-identical either way.
func (st *SkewTracker) AdoptFixedLane(scale int64) {
	if scale <= 0 || st.scale > 0 {
		return
	}
	n := st.n
	st.scale = scale
	st.fscheds = make([]*clock.FixedSchedule, n)
	st.curT = make([]declTicks, n)
	st.leftT = make([]declTicks, n)
	st.vals = make([]int64, n)
	for i, s := range st.scheds {
		st.fscheds[i], _ = s.CompileFixed(scale)
		st.curT[i] = st.declTicksOf(st.cur[i])
		st.leftT[i] = st.declTicksOf(st.left[i])
	}
	st.setInstant(st.pending)
}

// declTicksOf converts a declaration onto the grid.
func (st *SkewTracker) declTicksOf(d trace.Decl) declTicks {
	at, ok := fixed.FromRat(d.Real, st.scale)
	if !ok {
		at = noTick
	}
	val, ok1 := fixed.FromRat(d.Value, st.scale)
	hw0, ok2 := fixed.FromRat(d.HW0, st.scale)
	p, ok3 := d.Mult.Num()
	q, ok4 := d.Mult.Den()
	return declTicks{
		at: at, val: val, hw0: hw0, multP: p, multQ: q,
		ok: ok1 && ok2 && ok3 && ok4 && p >= 0 && q > 0,
	}
}

// logicalAtT evaluates node i's logical clock under dt at the current
// instant in ticks, or returns noTick when any component is off the grid or
// the value reaches tickLimit in magnitude (so that any difference of two
// values fits an int64). An on-grid result equals the rat lane's value bit
// for bit after fixed.ToRat.
func (st *SkewTracker) logicalAtT(dt declTicks, i int) int64 {
	if !dt.ok {
		return noTick
	}
	hwT, ok := st.fscheds[i].HWTicks(st.pendingT)
	if !ok {
		return noTick
	}
	term, ok := fixed.Sub(hwT, dt.hw0)
	if ok && dt.multP != dt.multQ { // p == q only for a multiplier of 1
		term, ok = fixed.MulDiv(term, dt.multP, dt.multQ)
	}
	if !ok {
		return noTick
	}
	if v, ok := fixed.Add(dt.val, term); ok && v > -tickLimit && v < tickLimit {
		return v
	}
	return noTick
}

// raiseT folds d ticks, measured for pair (i, j) at the current instant,
// into the pair's running maximum. Callers have checked d against the
// pair's pairT entry, so only an increase, an unset pair or a maximum held
// as a rational gets here; the last compares as rationals.
func (st *SkewTracker) raiseT(i, j int, d int64) {
	if j < i {
		i, j = j, i
	}
	idx := i*st.n + j
	if st.pairR != nil && st.pairR[idx].set {
		if !fixed.ToRat(d, st.scale).Greater(st.pairR[idx].skew) {
			return
		}
		st.pairR[idx] = ratMax{}
	}
	st.pairT[idx], st.pairT[j*st.n+i] = d, d
	st.pairAtT[idx] = st.pendingT
	st.raised(i, j)
}
