package clock

import (
	"gcs/internal/fixed"
)

// FixedSchedule is a Schedule compiled onto a tick grid of 1/scale: segment
// start times and hardware readings as int64 ticks, rates as small p/q pairs.
// Evaluation and inversion then run on checked integer arithmetic instead of
// rational arithmetic — exactly (every operation either returns the value the
// rat lane would compute, bit for bit, or reports !ok so the caller falls
// back). Compiled schedules are immutable and safe to share across engines
// and forks.
type FixedSchedule struct {
	scale int64
	at    []int64 // segment start times, ticks; at[0] == 0
	hw0   []int64 // hardware reading at segment start, ticks; hw0[0] == 0
	p, q  []int64 // rate p/q per segment, lowest terms, both positive
}

// CompileFixed compiles the schedule onto the tick grid of 1/scale. It
// returns nil and ok=false when any segment start, rate, or accumulated
// hardware reading does not land on the grid (or overflows); the nil
// schedule reports a miss on every evaluation, so the node's values fall
// back to the rat lane one by one.
func (s *Schedule) CompileFixed(scale int64) (*FixedSchedule, bool) {
	if scale <= 0 {
		return nil, false
	}
	n := len(s.rates)
	f := &FixedSchedule{
		scale: scale,
		at:    make([]int64, n),
		hw0:   make([]int64, n),
		p:     make([]int64, n),
		q:     make([]int64, n),
	}
	for i, seg := range s.rates {
		at, ok := fixed.FromRat(seg.At, scale)
		if !ok {
			return nil, false
		}
		p, pok := seg.Rate.Num()
		q, qok := seg.Rate.Den()
		if !pok || !qok || p <= 0 || q <= 0 {
			return nil, false
		}
		hw0, ok := fixed.FromRat(s.hw.Eval(seg.At), scale)
		if !ok {
			return nil, false
		}
		f.at[i], f.hw0[i], f.p[i], f.q[i] = at, hw0, p, q
	}
	return f, true
}

// Scale returns the tick grid's scale.
func (f *FixedSchedule) Scale() int64 { return f.scale }

// locate returns the index of the last segment with at <= t, or -1 when t
// precedes the domain.
func (f *FixedSchedule) locate(t int64) int {
	if t < f.at[0] {
		return -1
	}
	lo, hi := 0, len(f.at)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.at[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// HWTicks returns H(t) in ticks for a real time t in ticks, or ok=false when
// the reading is off-grid (the rate application does not divide exactly), t
// precedes the domain, or f is nil (a schedule that did not compile). An ok
// result equals Schedule.HW bit for bit after fixed.ToRat.
func (f *FixedSchedule) HWTicks(t int64) (int64, bool) {
	if f == nil {
		return 0, false
	}
	i := f.locate(t)
	if i < 0 {
		return 0, false
	}
	term, ok := fixed.MulDiv(t-f.at[i], f.p[i], f.q[i])
	if !ok {
		return 0, false
	}
	return fixed.Add(f.hw0[i], term)
}

// RealAtTicks returns the real time in ticks at which the hardware clock
// reads h ticks, or ok=false when the inversion is off-grid (dividing by the
// rate's numerator does not come out exact), h precedes H(0), or f is nil. An
// ok result equals Schedule.RealAt bit for bit after fixed.ToRat; the rat
// lane also owns every error case.
func (f *FixedSchedule) RealAtTicks(h int64) (int64, bool) {
	if f == nil || h < f.hw0[0] {
		return 0, false
	}
	// hw0 is strictly increasing (rates are positive): binary search the last
	// segment whose starting reading is <= h.
	lo, hi := 0, len(f.hw0)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.hw0[mid] <= h {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	term, ok := fixed.MulDiv(h-f.hw0[lo], f.q[lo], f.p[lo])
	if !ok {
		return 0, false
	}
	return fixed.Add(f.at[lo], term)
}

// AddToDetector folds the schedule's grid requirements into a scale
// detector: every segment start's denominator, every rate (numerator and
// denominator — inversion divides by the numerator), and the hardware
// reading accumulated at each breakpoint (crossing a segment can introduce
// denominators beyond the inputs': H(7/2) under rate 17/16 lands on
// 32nds). The rate denominator is additionally folded as an evaluation
// factor: H(t) of an on-grid time divides by it, so readings land on a grid
// that many times finer than the times themselves (under rate 17/16, H of a
// multiple of 1/8 lands on 128ths).
func (s *Schedule) AddToDetector(d *fixed.Detector) {
	for _, seg := range s.rates {
		d.AddValue(seg.At)
		d.AddRate(seg.Rate)
		d.AddValue(s.hw.Eval(seg.At))
		if den, ok := seg.Rate.Den(); ok {
			d.AddEvalDen(den)
		}
	}
}
