// Clone support for the online trackers: every tracker can be duplicated
// mid-run, producing an independent tracker with identical state. Cloning is
// the observer-side half of Engine.Fork — fork the engine at a shared prefix,
// clone the trackers that watched the prefix, attach the clones to the fork,
// and each branch's metrics continue exactly as if the whole branch had been
// observed from time zero.

package core

import (
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Clone returns an independent tracker with identical state: same running
// maxima, same pending time, same deferred right-limit evaluations, same
// per-instant clock values. The immutable environment (network, schedules,
// merged rate breakpoints, compiled schedule mirrors) is shared; everything
// mutable is deep-copied. The onPair hook is deliberately not carried over —
// it belongs to the wrapper that installed it (GradientTracker.Clone rewires
// its own).
func (st *SkewTracker) Clone() *SkewTracker {
	c := *st
	c.cur = append([]trace.Decl(nil), st.cur...)
	c.left = append([]trace.Decl(nil), st.left...)
	c.dirty = append([]int(nil), st.dirty...)
	c.isDirty = append([]bool(nil), st.isDirty...)
	c.pairT = append([]int64(nil), st.pairT...)
	c.pairAtT = append([]int64(nil), st.pairAtT...)
	c.pairR = append([]ratMax(nil), st.pairR...)
	c.vals = append([]int64(nil), st.vals...)
	c.ratVals = append([]ratVal(nil), st.ratVals...)
	c.curT = append([]declTicks(nil), st.curT...)
	c.leftT = append([]declTicks(nil), st.leftT...)
	c.onPair = nil
	return &c
}

// Clone returns an independent gradient tracker: the embedded SkewTracker is
// cloned and the first-violation hook is rewired onto the clone.
func (gt *GradientTracker) Clone() *GradientTracker {
	c := &GradientTracker{
		SkewTracker: gt.SkewTracker.Clone(),
		f:           gt.f,
		allowed:     gt.allowed, // immutable after construction
	}
	if gt.violation != nil {
		v := *gt.violation
		c.violation = &v
	}
	c.SkewTracker.onPair = c.observePair
	return c
}

// Clone returns an independent validity tracker with identical state.
func (vt *ValidityTracker) Clone() *ValidityTracker {
	return &ValidityTracker{
		scheds:  vt.scheds,
		cur:     append([]trace.Decl(nil), vt.cur...),
		leftVal: append([]rat.Rat(nil), vt.leftVal...),
		err:     vt.err,
	}
}
