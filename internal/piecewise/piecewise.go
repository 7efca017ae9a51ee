// Package piecewise implements piecewise-linear functions of exact rational
// time, with optional jump discontinuities.
//
// Two kinds of clocks in the reproduction are piecewise linear:
//
//   - hardware clocks H_i(t) = ∫ h_i(r) dr: continuous, strictly increasing,
//     slopes are the adversary-chosen rates;
//   - logical clocks L_i(t): piecewise linear with upward jumps (max-based
//     algorithms set their clock forward on message receipt).
//
// Skew analysis reduces to evaluating the maximum of a difference of two
// piecewise-linear functions, which is attained at a breakpoint of either
// function (evaluated from the left and from the right); exact rational
// arithmetic makes those maxima exact.
package piecewise

import (
	"errors"
	"fmt"

	"gcs/internal/rat"
)

// Seg describes one linear piece: on [From, nextFrom) the function value is
// V0 + Slope·(t − From). The final segment extends to +∞.
type Seg struct {
	From  rat.Rat
	V0    rat.Rat
	Slope rat.Rat
}

// PLF is a piecewise-linear function defined on [Start(), +∞). The zero value
// is unusable; construct with New.
type PLF struct {
	segs []Seg
}

// ErrBeforeStart is returned when evaluating or inverting outside the domain.
var ErrBeforeStart = errors.New("piecewise: argument before domain start")

// New returns the function f(t) = v0 + slope·(t − start) on [start, +∞).
func New(start, v0, slope rat.Rat) *PLF {
	return &PLF{segs: []Seg{{From: start, V0: v0, Slope: slope}}}
}

// FromSegs builds a PLF from explicit segments, which must be sorted by
// strictly increasing From.
func FromSegs(segs []Seg) (*PLF, error) {
	if len(segs) == 0 {
		return nil, errors.New("piecewise: no segments")
	}
	out := make([]Seg, len(segs))
	copy(out, segs)
	for i := 1; i < len(out); i++ {
		if !out[i-1].From.Less(out[i].From) {
			return nil, fmt.Errorf("piecewise: segment %d start %s not after %s", i, out[i].From, out[i-1].From)
		}
	}
	return &PLF{segs: out}, nil
}

// Clone returns an independent copy of f.
func (f *PLF) Clone() *PLF {
	segs := make([]Seg, len(f.segs))
	copy(segs, f.segs)
	return &PLF{segs: segs}
}

// NumSegs returns the number of linear pieces.
func (f *PLF) NumSegs() int { return len(f.segs) }

// Segs returns a copy of the segments.
func (f *PLF) Segs() []Seg {
	out := make([]Seg, len(f.segs))
	copy(out, f.segs)
	return out
}

// Append adds a new piece starting at from with value v0 and the given slope.
// from must be >= the current last breakpoint; appending at exactly the last
// breakpoint replaces the last piece (modelling an instantaneous
// re-declaration).
func (f *PLF) Append(from, v0, slope rat.Rat) error {
	last := &f.segs[len(f.segs)-1]
	switch cmp := from.Cmp(last.From); {
	case cmp < 0:
		return fmt.Errorf("piecewise: append at %s before last breakpoint %s", from, last.From)
	case cmp == 0:
		last.V0 = v0
		last.Slope = slope
		return nil
	default:
		f.segs = append(f.segs, Seg{From: from, V0: v0, Slope: slope})
		return nil
	}
}

// AppendSlope adds a continuous piece: the new piece starts at from with the
// left-limit value and the given slope.
func (f *PLF) AppendSlope(from, slope rat.Rat) error {
	last := f.segs[len(f.segs)-1]
	if from.Less(last.From) {
		return fmt.Errorf("piecewise: append at %s before last breakpoint %s", from, last.From)
	}
	v := last.V0.Add(last.Slope.Mul(from.Sub(last.From)))
	return f.Append(from, v, slope)
}

// locate returns the index of the segment containing t (the last segment with
// From <= t). It returns -1 when t precedes the domain.
func (f *PLF) locate(t rat.Rat) int {
	lo, hi := 0, len(f.segs)-1
	if t.Less(f.segs[0].From) {
		return -1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.segs[mid].From.LessEq(t) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Eval returns f(t), using the right-continuous convention at breakpoints.
// Evaluating before the domain start is a programming error and panics.
func (f *PLF) Eval(t rat.Rat) rat.Rat {
	i := f.locate(t)
	if i < 0 {
		panic(fmt.Sprintf("piecewise: Eval(%s) before domain start %s", t, f.segs[0].From))
	}
	s := f.segs[i]
	return s.V0.Add(s.Slope.Mul(t.Sub(s.From)))
}

// EvalLeft returns the left limit lim_{s→t⁻} f(s). At the domain start it
// equals Eval(start).
func (f *PLF) EvalLeft(t rat.Rat) rat.Rat {
	i := f.locate(t)
	if i < 0 {
		panic(fmt.Sprintf("piecewise: EvalLeft(%s) before domain start %s", t, f.segs[0].From))
	}
	s := f.segs[i]
	if t.Equal(s.From) && i > 0 {
		p := f.segs[i-1]
		return p.V0.Add(p.Slope.Mul(t.Sub(p.From)))
	}
	return s.V0.Add(s.Slope.Mul(t.Sub(s.From)))
}

// JumpAt returns Eval(t) − EvalLeft(t): zero where f is continuous.
func (f *PLF) JumpAt(t rat.Rat) rat.Rat {
	return f.Eval(t).Sub(f.EvalLeft(t))
}

// Breakpoints returns the segment start times.
func (f *PLF) Breakpoints() []rat.Rat {
	out := make([]rat.Rat, len(f.segs))
	for i, s := range f.segs {
		out[i] = s.From
	}
	return out
}

// BreakpointsIn returns breakpoints within (from, to].
func (f *PLF) BreakpointsIn(from, to rat.Rat) []rat.Rat {
	var out []rat.Rat
	for _, s := range f.segs {
		if s.From.Greater(from) && s.From.LessEq(to) {
			out = append(out, s.From)
		}
	}
	return out
}

// MinSlope returns the minimum slope among pieces intersecting [from, to].
func (f *PLF) MinSlope(from, to rat.Rat) rat.Rat {
	first := true
	var minS rat.Rat
	for i, s := range f.segs {
		segEnd := to
		if i+1 < len(f.segs) {
			segEnd = f.segs[i+1].From
		}
		if segEnd.Less(from) || s.From.Greater(to) {
			continue
		}
		if first || s.Slope.Less(minS) {
			minS = s.Slope
			first = false
		}
	}
	return minS
}

// MaxSlope returns the maximum slope among pieces intersecting [from, to].
func (f *PLF) MaxSlope(from, to rat.Rat) rat.Rat {
	first := true
	var maxS rat.Rat
	for i, s := range f.segs {
		segEnd := to
		if i+1 < len(f.segs) {
			segEnd = f.segs[i+1].From
		}
		if segEnd.Less(from) || s.From.Greater(to) {
			continue
		}
		if first || s.Slope.Greater(maxS) {
			maxS = s.Slope
			first = false
		}
	}
	return maxS
}

// MinJump returns the most negative jump in (from, to] (zero if none).
func (f *PLF) MinJump(from, to rat.Rat) rat.Rat {
	minJ := rat.Rat{}
	for _, s := range f.segs[1:] {
		if s.From.Greater(from) && s.From.LessEq(to) {
			if j := f.JumpAt(s.From); j.Less(minJ) {
				minJ = j
			}
		}
	}
	return minJ
}

// IsContinuous reports whether f has no jumps.
func (f *PLF) IsContinuous() bool {
	for _, s := range f.segs[1:] {
		if !f.JumpAt(s.From).IsZero() {
			return false
		}
	}
	return true
}

// InvertAt returns the earliest t with f(t) = y. It requires f to be
// nondecreasing (slopes >= 0, jumps >= 0); the caller is responsible for
// that. It returns ErrBeforeStart when y < f(Start()), and an error when y is
// skipped by a jump. When f's final slope is zero and y exceeds the final
// value, it reports an unreachable error.
func (f *PLF) InvertAt(y rat.Rat) (rat.Rat, error) {
	if y.Less(f.segs[0].V0) {
		return rat.Rat{}, ErrBeforeStart
	}
	for i, s := range f.segs {
		var endVal rat.Rat
		lastSeg := i+1 == len(f.segs)
		if !lastSeg {
			next := f.segs[i+1].From
			endVal = s.V0.Add(s.Slope.Mul(next.Sub(s.From)))
			// Value jumps to f.segs[i+1].V0 at next; y strictly between
			// endVal and that is unreachable (handled below by next loop
			// iteration check y < V0).
		}
		if !lastSeg && y.Greater(endVal) {
			if y.Less(f.segs[i+1].V0) {
				return rat.Rat{}, fmt.Errorf("piecewise: value %s skipped by jump at %s", y, f.segs[i+1].From)
			}
			continue
		}
		if y.Less(s.V0) {
			return rat.Rat{}, fmt.Errorf("piecewise: value %s skipped by jump at %s", y, s.From)
		}
		if s.Slope.IsZero() {
			if y.Equal(s.V0) {
				return s.From, nil
			}
			if lastSeg {
				return rat.Rat{}, fmt.Errorf("piecewise: value %s unreachable (flat tail)", y)
			}
			continue
		}
		return s.From.Add(y.Sub(s.V0).Div(s.Slope)), nil
	}
	return rat.Rat{}, fmt.Errorf("piecewise: value %s unreachable", y)
}

// Extremum is the location and value of a maximum.
type Extremum struct {
	At  rat.Rat
	Val rat.Rat
}

// MaxDiff returns the maximum of a(t) − b(t) over [from, to], together with a
// time where it is attained. Both functions must be defined on the interval.
// The maximum of a difference of piecewise-linear functions is attained at an
// interval endpoint or at a breakpoint (from the left or the right), so the
// search is exact.
func MaxDiff(a, b *PLF, from, to rat.Rat) Extremum {
	best := Extremum{At: from, Val: a.Eval(from).Sub(b.Eval(from))}
	consider := func(t rat.Rat) {
		if t.Less(from) || t.Greater(to) {
			return
		}
		if v := a.Eval(t).Sub(b.Eval(t)); v.Greater(best.Val) {
			best = Extremum{At: t, Val: v}
		}
		if v := a.EvalLeft(t).Sub(b.EvalLeft(t)); v.Greater(best.Val) {
			best = Extremum{At: t, Val: v}
		}
	}
	for _, t := range a.BreakpointsIn(from, to) {
		consider(t)
	}
	for _, t := range b.BreakpointsIn(from, to) {
		consider(t)
	}
	consider(to)
	return best
}

// MaxAbsDiff returns the maximum of |a(t) − b(t)| over [from, to].
func MaxAbsDiff(a, b *PLF, from, to rat.Rat) Extremum {
	p := MaxDiff(a, b, from, to)
	n := MaxDiff(b, a, from, to)
	if n.Val.Greater(p.Val) {
		return n
	}
	return p
}
