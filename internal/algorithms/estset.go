// Flat copy-on-write neighbor-estimate state for the gradient-family
// protocols. The estimates used to live in a per-node map[int]estimate,
// which made Engine.Fork's CloneState pass O(nodes·degree) map inserts per
// fork; a slot-indexed slice shared copy-on-write between a node and its
// clones makes cloning a single struct copy, deferring the page copy to the
// first post-fork write of whichever branch writes first.

package algorithms

import (
	"gcs/internal/engine"
	"gcs/internal/rat"
)

// nbrEst is one neighbor slot: the last value heard, anchored at the local
// hardware reading when it arrived. set distinguishes "never heard" — an
// unheard neighbor is skipped exactly like a missing map key was.
type nbrEst struct {
	val  rat.Rat
	atHW rat.Rat
	set  bool
}

// value extrapolates the estimate to the current hardware reading, assuming
// the neighbor's logical clock advances at least at the local hardware rate.
// This is a conservative heuristic, not a proof device.
func (e nbrEst) value(hwNow rat.Rat) rat.Rat {
	return e.val.Add(hwNow.Sub(e.atHW))
}

// estSet holds one node's neighbor estimates, slot-indexed in the engine's
// neighbor order (the order adjust sweeps them in — identical to the map
// version's per-neighbor lookup sweep, so behavior is unchanged). The slots
// page is shared copy-on-write across CloneState: clone() drops ownership on
// both sides, and the first write on either side copies the page.
type estSet struct {
	nbrs  []int    // the runtime's neighbor slice; shared, never written
	slots []nbrEst // one per neighbor; shared until owned
	owned bool     // this node may write slots in place
}

// init binds the slot table to the runtime's neighbor order on first use.
func (s *estSet) init(rt *engine.Runtime) {
	if s.slots != nil {
		return
	}
	s.nbrs = rt.Neighbors()
	s.slots = make([]nbrEst, len(s.nbrs))
	s.owned = true
}

// store records the estimate heard from a neighbor, copying the shared page
// first when a clone still references it. A sender outside the neighbor
// list is ignored — the sweep in adjust never consulted such entries in the
// map version either.
func (s *estSet) store(from int, e nbrEst) {
	for i, j := range s.nbrs {
		if j != from {
			continue
		}
		if !s.owned {
			s.slots = append([]nbrEst(nil), s.slots...)
			s.owned = true
		}
		s.slots[i] = e
		return
	}
}

// clone shares the slot page with a new estSet: both sides lose ownership,
// so whichever writes first copies. O(1) — this is what makes Engine.Fork
// O(queue) instead of O(nodes·degree).
func (s *estSet) clone() estSet {
	s.owned = false
	return estSet{nbrs: s.nbrs, slots: s.slots}
}
