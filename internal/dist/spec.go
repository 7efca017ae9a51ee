// Package dist turns internal/search into a coordinator/worker service: a
// coordinator partitions each campaign generation into deterministic shards
// and dispatches them to workers over a versioned JSON-over-HTTP protocol;
// workers rebuild the shard from the wire generation and run the same
// prefix-cached evaluation the single-process search runs; the coordinator
// merges shard results with the argmax-by-candidate-index reduction.
//
// The whole design leans on one invariant, proved and enforced in
// internal/search: a Campaign's merge is byte-identical to single-process
// Search for any shard layout, any shard count, and any arrival order
// (EngineSteps excepted — trunk prefixes replay once per shard). dist
// therefore owes no correctness argument of its own; what it adds is the
// service plumbing — a campaign *spec* both sides rebuild identical
// search.Options from, worker timeout/retry with reassignment to surviving
// workers, and local degradation (a shard no worker can evaluate runs on the
// coordinator, with the reason recorded in Result.Notes) — so a worker crash
// mid-campaign changes nothing about the final bytes.
package dist

import (
	"fmt"

	"gcs/internal/algorithms"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// CellSpec names one topology instance of a campaign. Cells are specs, not
// objects: coordinator and worker each rebuild the network from the spec, so
// only plain data crosses the wire.
type CellSpec struct {
	// Name labels the cell in progress events and results (defaults to
	// "topology/n" when empty).
	Name string `json:"name,omitempty"`
	// Topology is one of line | ring | grid | star | complete | two-node.
	Topology string `json:"topology"`
	// N is the node count (grid uses the nearest square; two-node ignores it).
	N int `json:"n,omitempty"`
	// Diameter parameterizes the two-node cell's distance d and the star /
	// complete edge length (default 1). Line, ring, and grid derive their
	// diameter from N.
	Diameter rat.Rat `json:"diameter,omitempty"`
	// Duration is the cell's real-time horizon.
	Duration rat.Rat `json:"duration"`
}

// Label returns the cell's display name.
func (c CellSpec) Label() string {
	if c.Name != "" {
		return c.Name
	}
	if c.Topology == "two-node" {
		return fmt.Sprintf("two-node d=%s", c.Diameter)
	}
	return fmt.Sprintf("%s n=%d", c.Topology, c.N)
}

// maxRounds caps a remote spec's round budget: the planner keeps one bound
// per round. The node count is capped by network.MaxNodes.
const maxRounds = 1024

// Network rebuilds the cell's network. Deterministic in the spec alone:
// coordinator and workers agree on the topology by construction.
func (c CellSpec) Network() (*network.Network, error) {
	switch c.Topology {
	case "line":
		return network.Line(c.N)
	case "ring":
		return network.Ring(c.N)
	case "grid":
		return network.SquareGrid(c.N)
	case "star":
		return network.Star(c.N, c.edge())
	case "complete":
		return network.Complete(c.N, c.edge())
	case "two-node":
		if c.Diameter.Sign() <= 0 {
			return nil, fmt.Errorf("dist: two-node cell needs a positive diameter, got %s", c.Diameter)
		}
		return network.TwoNode(c.Diameter)
	default:
		return nil, fmt.Errorf("dist: unknown topology %q (want line | ring | grid | star | complete | two-node)", c.Topology)
	}
}

// edge is the star/complete edge length: Diameter when given, else 1.
func (c CellSpec) edge() rat.Rat {
	if c.Diameter.Sign() > 0 {
		return c.Diameter
	}
	return rat.FromInt(1)
}

// CampaignSpec is a whole distributed campaign in plain data: the protocol,
// the cells, the move-set budget, and the adversary — everything both sides
// need to rebuild identical search.Options. It is the unit the wire protocol
// ships (inside every ShardRequest) and the unit `gcssearch plan` bounds.
type CampaignSpec struct {
	// Protocol is one of the gcssim names: null | max-gossip | max-flood |
	// bounded-max | gradient | llw | root-sync | rbs.
	Protocol string `json:"protocol"`
	// Cells are searched one after another; each is its own Campaign.
	Cells []CellSpec `json:"cells"`
	// Rho is the drift bound ρ (default 1/2).
	Rho rat.Rat `json:"rho,omitempty"`
	// Adversary seeds the search and serves as the tail for unscripted
	// decisions: midpoint | zero | max | random (default midpoint).
	Adversary string `json:"adversary,omitempty"`
	// Seed feeds the random adversary.
	Seed uint64 `json:"seed,omitempty"`
	// Objective is global | local | margin (default global). The margin
	// objective compares against the linear envelope f(d) = 1 + d.
	Objective string `json:"objective,omitempty"`

	// Search budget, zero meaning the search.Options default.
	Rounds         int     `json:"rounds,omitempty"`
	Beam           int     `json:"beam,omitempty"`
	DelayMutations int     `json:"delay_mutations,omitempty"`
	RateWindows    int     `json:"rate_windows,omitempty"`
	MutateTail     rat.Rat `json:"mutate_tail,omitempty"`
	// DisablePrefixCache re-simulates every candidate from scratch.
	DisablePrefixCache bool `json:"disable_prefix_cache,omitempty"`
	// Threads bounds each evaluator's local worker pool (0 = GOMAXPROCS).
	// A worker process may override it with its own capacity.
	Threads int `json:"threads,omitempty"`
}

// Validate checks the spec rebuilds: every cell's network, the protocol, the
// adversary, and the objective, with the round budget under maxRounds.
func (s *CampaignSpec) Validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("dist: campaign has no cells")
	}
	if s.Rounds > maxRounds {
		return fmt.Errorf("dist: %d rounds exceeds the cap of %d", s.Rounds, maxRounds)
	}
	for i := range s.Cells {
		if _, err := s.Cells[i].Network(); err != nil {
			return fmt.Errorf("dist: cell %d: %w", i, err)
		}
		if s.Cells[i].Duration.Sign() <= 0 {
			return fmt.Errorf("dist: cell %d (%s): non-positive duration %s", i, s.Cells[i].Label(), s.Cells[i].Duration)
		}
	}
	if _, err := buildProtocol(s.Protocol); err != nil {
		return err
	}
	if _, err := buildAdversary(s.adversaryName(), s.Seed); err != nil {
		return err
	}
	if _, err := search.ParseObjective(s.objectiveName()); err != nil {
		return err
	}
	if s.MutateTail.Sign() < 0 || s.MutateTail.Greater(rat.FromInt(1)) {
		return fmt.Errorf("dist: mutate_tail %s outside [0, 1]", s.MutateTail)
	}
	return nil
}

func (s *CampaignSpec) adversaryName() string {
	if s.Adversary == "" {
		return "midpoint"
	}
	return s.Adversary
}

func (s *CampaignSpec) objectiveName() string {
	if s.Objective == "" {
		return "global"
	}
	return s.Objective
}

func (s *CampaignSpec) rho() rat.Rat {
	if s.Rho.Sign() > 0 {
		return s.Rho
	}
	return rat.MustFrac(1, 2)
}

// CellOptions rebuilds the search.Options for cell i. Both sides of the wire
// call exactly this, so coordinator-side Campaign state and worker-side
// EvaluateShard always describe the same search — the precondition for the
// byte-identity guarantee.
func (s *CampaignSpec) CellOptions(i int) (search.Options, error) {
	if i < 0 || i >= len(s.Cells) {
		return search.Options{}, fmt.Errorf("dist: cell %d of %d", i, len(s.Cells))
	}
	cell := s.Cells[i]
	net, err := cell.Network()
	if err != nil {
		return search.Options{}, err
	}
	proto, err := buildProtocol(s.Protocol)
	if err != nil {
		return search.Options{}, err
	}
	base, err := buildAdversary(s.adversaryName(), s.Seed)
	if err != nil {
		return search.Options{}, err
	}
	obj, err := search.ParseObjective(s.objectiveName())
	if err != nil {
		return search.Options{}, err
	}
	opt := search.Options{
		Net:                net,
		Protocol:           proto,
		Duration:           cell.Duration,
		Rho:                s.rho(),
		Base:               base,
		Objective:          obj,
		Rounds:             s.Rounds,
		Beam:               s.Beam,
		DelayMutations:     s.DelayMutations,
		RateWindows:        s.RateWindows,
		MutateTail:         s.MutateTail,
		DisablePrefixCache: s.DisablePrefixCache,
		Workers:            s.Threads,
	}
	if obj == search.ObjectiveGradientMargin {
		// The same envelope gcssim -search compares against: f(d) = 1 + d.
		opt.Gradient = core.LinearGradient(rat.FromInt(1), rat.FromInt(1))
	}
	return opt, nil
}

// buildProtocol maps the gcssim protocol vocabulary onto constructors.
func buildProtocol(name string) (engine.Protocol, error) {
	switch name {
	case "null":
		return algorithms.Null(), nil
	case "max-gossip":
		return algorithms.MaxGossip(rat.FromInt(1)), nil
	case "max-flood":
		return algorithms.MaxFlood(rat.FromInt(1)), nil
	case "bounded-max":
		return algorithms.BoundedMax(rat.FromInt(1), rat.FromInt(1)), nil
	case "gradient":
		return algorithms.Gradient(algorithms.DefaultGradientParams()), nil
	case "llw":
		return algorithms.LLW(algorithms.DefaultLLWParams()), nil
	case "root-sync":
		return algorithms.RootSync(rat.FromInt(1), 0), nil
	case "rbs":
		return algorithms.RBS(rat.FromInt(2), 0), nil
	default:
		return nil, fmt.Errorf("dist: unknown protocol %q", name)
	}
}

// buildAdversary maps the gcssim adversary vocabulary onto constructors. All
// four are stateless, hence shard-safe; stateful bases enter campaigns only
// through the programmatic API, where search refuses any it cannot clone.
func buildAdversary(name string, seed uint64) (engine.Adversary, error) {
	switch name {
	case "midpoint":
		return engine.Midpoint(), nil
	case "zero":
		return engine.FractionAdversary{Frac: rat.Rat{}}, nil
	case "max":
		return engine.FractionAdversary{Frac: rat.FromInt(1)}, nil
	case "random":
		return engine.HashAdversary{Seed: seed, Denom: 8}, nil
	default:
		return nil, fmt.Errorf("dist: unknown adversary %q", name)
	}
}
