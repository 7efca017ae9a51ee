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
// are byte-identical to the pure rat lane, witnesses included. On the
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
// rat lane) when the tracker is attached. The tracker compiles its own
// schedule mirrors at that scale; a tracker that never adopts a scale — or
// adopts 0 — runs entirely on the rat lane, byte-identical either way.
func (st *SkewTracker) AdoptFixedLane(scale int64) {
	if scale < 0 {
		scale = 0
	}
	if scale == st.scale {
		return // already on this grid (e.g. a clone re-attached to a fork)
	}
	var fs []*clock.FixedSchedule
	if scale > 0 {
		fs = make([]*clock.FixedSchedule, st.n)
		for i, s := range st.scheds {
			f, ok := s.CompileFixed(scale)
			if !ok {
				fs, scale = nil, 0
				break
			}
			fs[i] = f
		}
	}
	st.rescale(scale, fs)
}

// rescale moves the tracker onto the grid of scale (0: the rat lane) with
// the matching compiled schedules. Every maximum is re-expressed on the new
// grid, or held as a rational where it does not fit; the declaration
// mirrors are rebuilt and the value vectors go stale.
func (st *SkewTracker) rescale(scale int64, fs []*clock.FixedSchedule) {
	n := st.n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			idx := i*n + j
			if st.pairT[idx] == noTick && (st.pairR == nil || !st.pairR[idx].set) {
				continue
			}
			skew, at := st.skewR(idx), st.atR(idx)
			v, ok1 := fixed.FromRat(skew, scale)
			a, ok2 := fixed.FromRat(at, scale)
			if ok1 && ok2 {
				st.pairT[idx], st.pairT[j*n+i], st.pairAtT[idx] = v, v, a
				if st.pairR != nil {
					st.pairR[idx] = ratMax{}
				}
				continue
			}
			if st.pairR == nil {
				st.pairR = make([]ratMax, n*n)
			}
			st.pairR[idx] = ratMax{skew: skew, at: at, set: true}
			st.pairT[idx], st.pairT[j*n+i] = noTick, noTick
		}
	}
	st.scale, st.fscheds = scale, fs
	if scale > 0 {
		if st.curT == nil {
			st.curT = make([]declTicks, n)
			st.leftT = make([]declTicks, n)
			st.vals = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			st.curT[i] = st.declTicksOf(st.cur[i])
			st.leftT[i] = st.declTicksOf(st.left[i])
		}
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
