// Package core defines the gradient clock synchronization problem of
// Fan & Lynch (PODC 2004) §4 as executable checkers over recorded
// executions.
//
//   - Requirement 1 (Validity): every logical clock satisfies
//     L(t+r) − L(t) ≥ r/2 for all r > 0 — equivalently, every linear piece
//     has slope ≥ 1/2 and there are no downward jumps.
//   - Requirement 2 (f-Gradient): |L_i(t) − L_j(t)| ≤ f(d(i,j)) for every
//     pair at every time.
//
// The checkers are exact: logical clocks are piecewise linear in exact
// rational time, so maxima of pairwise differences are computed at
// breakpoints, not sampled.
package core

import (
	"fmt"
	"sort"

	"gcs/internal/piecewise"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// ValidityRate is the paper's lower bound on logical clock rate (1/2).
var ValidityRate = rat.MustFrac(1, 2)

// CheckValidity verifies Requirement 1 on every node over the full
// execution: minimum logical slope >= 1/2 and no downward jumps.
func CheckValidity(e *trace.Execution) error {
	zero := rat.Rat{}
	for i, l := range e.Logical {
		if s := l.MinSlope(zero, e.Duration); s.Less(ValidityRate) {
			return fmt.Errorf("core: node %d logical rate %s < 1/2 violates validity", i, s)
		}
		if j := l.MinJump(zero, e.Duration); j.Sign() < 0 {
			return fmt.Errorf("core: node %d logical clock jumps down by %s", i, j.Neg())
		}
	}
	return nil
}

// GradientFunc is a candidate gradient bound f: distance → allowed skew.
type GradientFunc func(d rat.Rat) rat.Rat

// LinearGradient returns f(d) = base + slope·d.
func LinearGradient(base, slope rat.Rat) GradientFunc {
	return func(d rat.Rat) rat.Rat { return base.Add(slope.Mul(d)) }
}

// PairSkew is the observed worst skew for one node pair.
type PairSkew struct {
	I, J    int
	Dist    rat.Rat
	Skew    rat.Rat // max |L_i − L_j| over the window
	At      rat.Rat
	Allowed rat.Rat // f(dist); zero-valued when no f was supplied
}

// GradientReport summarizes an f-gradient check.
type GradientReport struct {
	OK bool
	// Worst is the pair with the largest Skew/Allowed ratio (or largest skew
	// when no bound is given).
	Worst PairSkew
	// Checked is the number of pairs examined.
	Checked int
}

// CheckGradient verifies Requirement 2 for the whole execution against f.
func CheckGradient(e *trace.Execution, f GradientFunc) GradientReport {
	rep := GradientReport{OK: true}
	var worstRatio float64
	e.Net.Pairs(func(i, j int) {
		rep.Checked++
		d := e.Net.Dist(i, j)
		allowed := f(d)
		ext := e.MaxAbsSkew(i, j, rat.Rat{}, e.Duration)
		ratio := ext.Val.Float64() / allowed.Float64()
		if ext.Val.Greater(allowed) {
			rep.OK = false
		}
		if ratio > worstRatio {
			worstRatio = ratio
			rep.Worst = PairSkew{I: i, J: j, Dist: d, Skew: ext.Val, At: ext.At, Allowed: allowed}
		}
	})
	return rep
}

// GlobalSkew returns the maximum of |L_i − L_j| over all pairs and all times.
func GlobalSkew(e *trace.Execution) PairSkew {
	var worst PairSkew
	first := true
	e.Net.Pairs(func(i, j int) {
		ext := e.MaxAbsSkew(i, j, rat.Rat{}, e.Duration)
		if first || ext.Val.Greater(worst.Skew) {
			first = false
			worst = PairSkew{I: i, J: j, Dist: e.Net.Dist(i, j), Skew: ext.Val, At: ext.At}
		}
	})
	return worst
}

// LocalSkew returns the maximum of |L_i − L_j| over distance-1 pairs — the
// f(1) the main theorem bounds from below.
func LocalSkew(e *trace.Execution) PairSkew {
	one := rat.FromInt(1)
	var worst PairSkew
	first := true
	e.Net.Pairs(func(i, j int) {
		if !e.Net.Dist(i, j).Equal(one) {
			return
		}
		ext := e.MaxAbsSkew(i, j, rat.Rat{}, e.Duration)
		if first || ext.Val.Greater(worst.Skew) {
			first = false
			worst = PairSkew{I: i, J: j, Dist: one, Skew: ext.Val, At: ext.At}
		}
	})
	return worst
}

// ProfilePoint is one point of the empirical gradient profile.
type ProfilePoint struct {
	Dist  rat.Rat
	Pairs int
	// MaxSkew is the empirical f̂(d): the worst skew among pairs at this
	// distance over the whole execution.
	MaxSkew rat.Rat
}

// SkewProfile computes the empirical gradient profile f̂(d) = max skew among
// pairs at each distinct distance. This is the curve Requirement 2 bounds by
// f; plotting it per algorithm is experiment E6.
func SkewProfile(e *trace.Execution) []ProfilePoint {
	byDist := map[string]*ProfilePoint{}
	e.Net.Pairs(func(i, j int) {
		d := e.Net.Dist(i, j)
		key := d.Key()
		p, ok := byDist[key]
		if !ok {
			p = &ProfilePoint{Dist: d}
			byDist[key] = p
		}
		p.Pairs++
		ext := e.MaxAbsSkew(i, j, rat.Rat{}, e.Duration)
		if ext.Val.Greater(p.MaxSkew) {
			p.MaxSkew = ext.Val
		}
	})
	out := make([]ProfilePoint, 0, len(byDist))
	for _, p := range byDist {
		out = append(out, *p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist.Less(out[b].Dist) })
	return out
}

// MaxIncreasePerUnit measures sup_t (L_i(t+1) − L_i(t)) for node i over
// t ∈ [from, to−1]: the quantity the Bounded Increase lemma bounds by
// 16·f(1). For a piecewise-linear L the supremum over a sliding unit window
// is attained with a window endpoint at a breakpoint, so the search over
// candidate windows [b−1, b] and [b, b+1] for each breakpoint b is exact.
func MaxIncreasePerUnit(e *trace.Execution, i int, from, to rat.Rat) piecewise.Extremum {
	one := rat.FromInt(1)
	l := e.Logical[i]
	if to.Sub(from).Less(one) {
		return piecewise.Extremum{At: from}
	}
	best := piecewise.Extremum{At: from, Val: l.Eval(from.Add(one)).Sub(l.Eval(from))}
	consider := func(t rat.Rat) {
		if t.Less(from) || t.Greater(to.Sub(one)) {
			return
		}
		if v := l.Eval(t.Add(one)).Sub(l.Eval(t)); v.Greater(best.Val) {
			best = piecewise.Extremum{At: t, Val: v}
		}
		// Left-limit window: catches suprema approached as the window slides
		// off an upward jump.
		if v := l.EvalLeft(t.Add(one)).Sub(l.EvalLeft(t)); v.Greater(best.Val) {
			best = piecewise.Extremum{At: t, Val: v}
		}
	}
	for _, b := range l.Breakpoints() {
		consider(b)
		consider(b.Sub(one))
	}
	consider(to.Sub(one))
	return best
}
