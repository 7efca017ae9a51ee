// Schedule-swap support for the online trackers: the observer-side half of
// Engine.SwapSchedule. When a fork swaps in a mutated rate schedule that
// agrees with the old one on the dispatched prefix, a tracker cloned from the
// trunk must watch the suffix under the new schedule — its history (running
// maxima, declarations, consumed breakpoints) stays valid precisely because
// the schedules agree before the swap point, while future clock evaluations
// and rate breakpoints come from the replacement.

package core

import (
	"fmt"

	"gcs/internal/clock"
)

// SwapSchedule replaces node's hardware rate schedule. The caller must
// guarantee the engine-side precondition (Engine.SwapSchedule): the new
// schedule agrees with the current one on [0, Time()), so every evaluation
// already folded into the running maxima would have come out identically.
// The tracker rebuilds its merged breakpoint cursor — breakpoints at or
// before the processed time count as consumed, exactly as a tracker that
// watched the whole run under the new schedule would have consumed them —
// and recompiles the node's fixed-lane mirror. A replacement that does not
// fit the adopted tick grid leaves the node's mirror nil: its clock values
// take the rat lane one by one, while the grid, the other nodes' mirrors and
// every maximum stay as they are (arithmetic changes, results do not).
func (st *SkewTracker) SwapSchedule(node int, s *clock.Schedule) error {
	if node < 0 || node >= st.n {
		return fmt.Errorf("core: SwapSchedule of invalid node %d", node)
	}
	if s == nil {
		return fmt.Errorf("core: SwapSchedule with nil schedule")
	}
	// Copy on write: scheds and breaks are shared with the tracker this one
	// was cloned from.
	scheds := append([]*clock.Schedule(nil), st.scheds...)
	scheds[node] = s
	st.scheds = scheds
	st.breaks = mergedBreaks(scheds)
	nb := 0
	for nb < len(st.breaks) && st.breaks[nb].at.LessEq(st.pending) {
		nb++
	}
	st.nextBreak = nb
	if st.scale > 0 {
		fs := append([]*clock.FixedSchedule(nil), st.fscheds...)
		fs[node], _ = s.CompileFixed(st.scale)
		st.fscheds = fs
	}
	// The node's clock values at the current instant are re-read under the
	// replacement.
	st.vstate = valsStale
	return nil
}

// SwapSchedule replaces node's hardware rate schedule, under the same
// agreement precondition as SkewTracker.SwapSchedule. Open declarations are
// closed out against the replacement: for windows that straddle the swap
// point this is still exact, because the schedules agree on the pre-swap
// part of the window.
func (vt *ValidityTracker) SwapSchedule(node int, s *clock.Schedule) error {
	if node < 0 || node >= len(vt.scheds) {
		return fmt.Errorf("core: SwapSchedule of invalid node %d", node)
	}
	if s == nil {
		return fmt.Errorf("core: SwapSchedule with nil schedule")
	}
	scheds := append([]*clock.Schedule(nil), vt.scheds...)
	scheds[node] = s
	vt.scheds = scheds
	return nil
}
