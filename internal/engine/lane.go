package engine

import (
	"gcs/internal/clock"
	"gcs/internal/fixed"
)

// Lane selects the arithmetic lane for an engine's hot path.
//
// The fixed lane is purely an execution strategy: every value it produces is
// exact and normalized identically to the rat lane's, so traces, ledgers,
// and search results are byte-identical whichever lane runs (pinned by the
// cross-lane differential tests). Any single value that does not land on the
// detected grid falls back to rational arithmetic for that value alone.
type Lane uint8

const (
	// LaneAuto (the default) detects at construction whether the run's
	// rates, delays, and schedule breakpoints share a bounded common
	// denominator, and runs event keys, clock evaluation, and clock
	// inversion on scaled int64 ticks when they do.
	LaneAuto Lane = iota
	// LaneRat forces exact rational arithmetic everywhere, skipping
	// detection. The reference lane for differential testing, and the
	// fallback when detection fails.
	LaneRat
)

// String returns "auto" or "rat".
func (l Lane) String() string {
	if l == LaneRat {
		return "rat"
	}
	return "auto"
}

// WithLane selects the engine's arithmetic lane (default LaneAuto).
func WithLane(l Lane) Option { return func(e *Engine) { e.lane = l } }

// FixedLaneAdopter is an optional Observer extension: an observer that can
// mirror its own state in scaled int64 ticks implements it, and Observe (or
// New, for observers attached via WithObservers) hands it the engine's
// detected scale — 0 when the run stays on the rat lane. Adoption is purely
// an execution strategy; an adopting observer must produce byte-identical
// results either way (SkewTracker.AdoptFixedLane is the canonical
// implementation).
type FixedLaneAdopter interface {
	AdoptFixedLane(scale int64)
}

// DenomHinter is an optional Adversary extension advertising the delay
// quantization: DelayDenom returns a positive D such that every delay the
// adversary can return has a denominator dividing D times the denominator of
// the bound it was given, or 0 when no such bound is known. The engine folds
// the hint into fixed-lane scale detection; a missing or wrong hint never
// affects correctness — off-grid delays fall back to the rat lane value by
// value — it only decides how often the fast lane engages.
type DenomHinter interface {
	DelayDenom() int64
}

// DelayDenom implements DenomHinter: delays are Frac·bound.
func (a FractionAdversary) DelayDenom() int64 {
	den, ok := a.Frac.Den()
	if !ok {
		return 0
	}
	return den
}

// DelayDenom implements DenomHinter: delays are quantized to Denom-ths of
// the bound.
func (a HashAdversary) DelayDenom() int64 {
	if a.Denom <= 0 {
		return 16
	}
	return a.Denom
}

// DelayDenom implements DenomHinter: the bounded LCM of every scripted
// delay's denominator and the Fallback tail's own hint. Map iteration order
// does not matter — the LCM is commutative.
func (a ScriptedAdversary) DelayDenom() int64 {
	d := int64(1)
	for _, delay := range a.Delays {
		den, ok := delay.Den()
		if !ok {
			return 0
		}
		d, ok = fixed.LCM(d, den)
		if !ok {
			return 0
		}
	}
	if a.Fallback != nil {
		h, ok := a.Fallback.(DenomHinter)
		if !ok {
			return 0
		}
		fd := h.DelayDenom()
		if fd <= 0 {
			return 0
		}
		var lok bool
		d, lok = fixed.LCM(d, fd)
		if !lok {
			return 0
		}
	}
	return d
}

// detectLane runs fixed-lane scale detection at construction: the bounded
// LCM over every schedule's grid requirements, every pairwise message-delay
// bound, and the adversary's advertised delay quantization. On success the
// engine compiles each schedule onto the grid and runs its hot path in
// ticks; on any failure it silently stays on the rat lane.
func (e *Engine) detectLane() {
	if e.lane == LaneRat {
		return
	}
	det := fixed.NewDetector()
	for _, s := range e.scheds {
		s.AddToDetector(det)
	}
	n := e.net.N()
	distDen := int64(1)
	distDenOK := true
	for i := 0; i < n && detOK(det); i++ {
		for j := i + 1; j < n; j++ {
			d := e.net.Dist(i, j)
			det.AddValue(d)
			if den, ok := d.Den(); ok && distDenOK {
				distDen, distDenOK = fixed.LCM(distDen, den)
			}
		}
	}
	if h, ok := e.adv.(DenomHinter); ok {
		if d := h.DelayDenom(); d > 0 {
			det.AddDen(d)
			// Delays are multiples of bound/D, so their denominators divide
			// D·den(bound): fold the product when it stays in range.
			if distDenOK {
				if prod, ok := fixed.Mul(d, distDen); ok {
					det.AddDen(prod)
				}
			}
		}
	}
	scale, ok := det.Scale()
	if !ok {
		return
	}
	fs := make([]*clock.FixedSchedule, n)
	for i, s := range e.scheds {
		f, ok := s.CompileFixed(scale)
		if !ok {
			return
		}
		fs[i] = f
	}
	e.scale = scale
	e.fscheds = fs
	e.nowTickOK = true
}

// detOK reports whether the detector can still succeed, letting the
// quadratic distance sweep stop early once detection is lost.
func detOK(d *fixed.Detector) bool {
	_, ok := d.Scale()
	return ok
}

// TimeLane reports the arithmetic lane the engine runs on: "fixed" when
// scale detection succeeded at construction, "rat" otherwise. Forks inherit
// the parent's lane.
func (e *Engine) TimeLane() string {
	if e.scale > 0 {
		return "fixed"
	}
	return "rat"
}

// FixedScale returns the detected tick scale (ticks per time unit), or 0 on
// the rat lane.
func (e *Engine) FixedScale() int64 { return e.scale }
