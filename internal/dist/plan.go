package dist

import (
	"fmt"

	"gcs/internal/search"
)

// CellPlan bounds one cell of a campaign without executing any engine step:
// exact candidate-count upper bounds from the move-set arithmetic.
type CellPlan struct {
	Cell  CellSpec `json:"cell"`
	Nodes int      `json:"nodes"`
	// Generations is the maximum number of evaluated generations: the
	// initial base generation plus the mutation-round budget.
	Generations int `json:"generations"`
	// CandidatesPerGen bounds each generation's pool: index 0 is the initial
	// generation (exactly 1, the unmutated base), later entries the per-round
	// upper bound Beam × (rate flips + windowed surgery + delay snaps).
	// Deduplication and beam convergence only shrink the real pools.
	CandidatesPerGen []int `json:"candidates_per_gen"`
	// MaxCandidates is the sum of CandidatesPerGen.
	MaxCandidates int `json:"max_candidates"`
}

// Plan bounds a whole campaign.
type Plan struct {
	Cells []CellPlan `json:"cells"`
	// MaxCandidates totals the per-cell bounds.
	MaxCandidates int `json:"max_candidates"`
}

// Plan bounds the campaign's work. No engine is constructed: the counts are
// arithmetic over the spec and the cells' node counts.
func (c *Campaign) Plan() *Plan {
	spec := &c.spec
	// The search's own defaults, read without running a search: the
	// planner must not need a live one.
	rounds, beam, delayMut := spec.Rounds, spec.Beam, spec.DelayMutations
	if rounds <= 0 {
		rounds = search.DefaultRounds
	}
	if beam <= 0 {
		beam = search.DefaultBeam
	}
	if delayMut <= 0 {
		delayMut = search.DefaultDelayMutations
	}
	p := &Plan{}
	for i, cell := range spec.Cells {
		n := c.nets[i].N()
		// Per mutation generation, each of the Beam parents contributes at
		// most: 2 whole-run rate flips per node (to 1−ρ and 1+ρ; the third
		// choice always matches the current rate), 2 windowed pins per node
		// per window, and |delaySnaps| = 3 snaps per sampled decision.
		perParent := 2*n + 2*n*spec.RateWindows + 3*delayMut
		cp := CellPlan{
			Cell:             cell,
			Nodes:            n,
			Generations:      1 + rounds,
			CandidatesPerGen: []int{1},
			MaxCandidates:    1,
		}
		for r := 0; r < rounds; r++ {
			cp.CandidatesPerGen = append(cp.CandidatesPerGen, beam*perParent)
			cp.MaxCandidates += beam * perParent
		}
		p.Cells = append(p.Cells, cp)
		p.MaxCandidates += cp.MaxCandidates
	}
	return p
}

// Render formats a plan as the human-readable `gcssearch plan` report.
func (p *Plan) Render() string {
	out := ""
	for i, cp := range p.Cells {
		out += fmt.Sprintf("cell %d %-20s %d nodes, %d generations, ≤ %d candidates\n",
			i, cp.Cell.Label(), cp.Nodes, cp.Generations, cp.MaxCandidates)
	}
	return out + fmt.Sprintf("total: ≤ %d candidates\n", p.MaxCandidates)
}
