package dist

import (
	"fmt"
	"time"

	"gcs/internal/perf"
	"gcs/internal/rat"
)

// CellPlan prices one cell of a campaign without executing any engine step:
// exact candidate-count upper bounds from the move-set arithmetic, engine
// steps from a topology cost model, wall-clock from a measured ns/step.
type CellPlan struct {
	Cell  CellSpec `json:"cell"`
	Nodes int      `json:"nodes"`
	// NsPerStep and CostSource are the cost model's step price.
	NsPerStep  float64 `json:"ns_per_step"`
	CostSource string  `json:"cost_source"`
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
	// StepsPerCandidate estimates one candidate's full execution length:
	// n init events plus duration × (one timer per node per time unit + one
	// delivery per directed edge per time unit) — the event density of the
	// gossip-style protocols the repo ships.
	StepsPerCandidate uint64 `json:"steps_per_candidate"`
	// EstSteps = MaxCandidates × StepsPerCandidate.
	EstSteps uint64 `json:"est_steps"`
}

// Plan prices a whole campaign.
type Plan struct {
	Cells []CellPlan `json:"cells"`
	// MaxCandidates and EstSteps total the per-cell figures.
	MaxCandidates int    `json:"max_candidates"`
	EstSteps      uint64 `json:"est_steps"`
	// NsPerStep and CostSource are the applied cost model (a BENCH_perf
	// measurement name, or "default").
	NsPerStep  float64 `json:"ns_per_step"`
	CostSource string  `json:"cost_source"`
	// EstSerial is the estimated single-evaluator wall-clock; EstParallel
	// divides by the planned worker count (ideal speedup — an upper bound on
	// the benefit, not a promise).
	EstSerialNs   float64 `json:"est_serial_ns"`
	EstParallelNs float64 `json:"est_parallel_ns"`
	Workers       int     `json:"workers"`
}

// EstSerial returns the serial estimate as a duration.
func (p *Plan) EstSerial() time.Duration { return time.Duration(p.EstSerialNs) }

// EstParallel returns the parallel estimate as a duration.
func (p *Plan) EstParallel() time.Duration { return time.Duration(p.EstParallelNs) }

// PlanCampaign prices spec against a cost model for a fleet of `workers`
// evaluators (0 = 1). No engine is constructed: the counts are arithmetic
// over the spec, priced at the model's ns/step.
func PlanCampaign(spec CampaignSpec, model perf.CostModel, workers int) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	// Mirror search.Options defaults without running normalize: the planner
	// must not need a live search.
	rounds, beam, delayMut := spec.Rounds, spec.Beam, spec.DelayMutations
	if rounds <= 0 {
		rounds = 4
	}
	if beam <= 0 {
		beam = 2
	}
	if delayMut <= 0 {
		delayMut = 16
	}
	p := &Plan{NsPerStep: model.NsPerStep, CostSource: model.Source, Workers: workers}
	for _, cell := range spec.Cells {
		net, err := cell.Network()
		if err != nil {
			return nil, err
		}
		n := net.N()
		// Per mutation generation, each of the Beam parents contributes at
		// most: 2 whole-run rate flips per node (to 1−ρ and 1+ρ; the third
		// choice always matches the current rate), 2 windowed pins per node
		// per window, and |delaySnaps| = 3 snaps per sampled decision.
		perParent := 2*n + 2*n*spec.RateWindows + 3*delayMut
		cp := CellPlan{
			Cell:             cell,
			Nodes:            n,
			NsPerStep:        model.NsPerStep,
			CostSource:       model.Source,
			Generations:      1 + rounds,
			CandidatesPerGen: []int{1},
		}
		cp.MaxCandidates = 1
		for r := 0; r < rounds; r++ {
			cp.CandidatesPerGen = append(cp.CandidatesPerGen, beam*perParent)
			cp.MaxCandidates += beam * perParent
		}
		cp.StepsPerCandidate = estimateSteps(net, cell.Duration)
		cp.EstSteps = uint64(cp.MaxCandidates) * cp.StepsPerCandidate
		p.Cells = append(p.Cells, cp)
		p.MaxCandidates += cp.MaxCandidates
		p.EstSteps += cp.EstSteps
		p.EstSerialNs += float64(cp.EstSteps) * cp.NsPerStep
	}
	p.EstParallelNs = p.EstSerialNs / float64(workers)
	return p, nil
}

// estimateSteps models one candidate run's dispatched events: n inits, and
// per unit of real time one timer firing per node plus one delivery per
// directed neighbor edge — the event density of periodic-gossip protocols.
// It is an order-of-magnitude planning figure, not a measurement.
func estimateSteps(net interface {
	N() int
	Neighbors(i int) []int
}, duration rat.Rat) uint64 {
	n := net.N()
	edges := 0
	for i := 0; i < n; i++ {
		edges += len(net.Neighbors(i))
	}
	dur := duration.Float64()
	steps := float64(n) + dur*float64(n+edges)
	if steps < float64(n) {
		steps = float64(n)
	}
	return uint64(steps)
}

// Render formats a plan as the human-readable `gcssearch plan` report.
func (p *Plan) Render() string {
	out := ""
	for i, cp := range p.Cells {
		out += fmt.Sprintf("cell %d %-20s %d nodes, %d generations, ≤ %d candidates, ~%d steps/candidate, ~%d engine steps @ %.0f ns/step\n",
			i, cp.Cell.Label(), cp.Nodes, cp.Generations, cp.MaxCandidates, cp.StepsPerCandidate, cp.EstSteps, cp.NsPerStep)
	}
	out += fmt.Sprintf("total: ≤ %d candidates, ~%d engine steps\n", p.MaxCandidates, p.EstSteps)
	out += fmt.Sprintf("cost model: %.0f ns/step (%s)\n", p.NsPerStep, p.CostSource)
	out += fmt.Sprintf("estimated wall-clock: %s serial, %s across %d evaluator(s)\n",
		p.EstSerial().Round(time.Millisecond), p.EstParallel().Round(time.Millisecond), p.Workers)
	return out
}
