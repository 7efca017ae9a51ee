// Package dist runs worst-case search campaigns: a campaign spec names a
// protocol, a list of topology cells and the search budget in plain JSON,
// NewCampaign validates it and builds each cell's network once, and the
// Campaign's Plan bounds its work without executing an engine step while its
// Run searches each cell in this process with internal/search. `gcssearch
// plan` and `gcssearch run` are its command line, and the spec is the one
// place user input becomes search.Options: every search the command line can
// start is a campaign spec, down to a single cell.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"gcs/internal/algorithms"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// CellSpec names one topology instance of a campaign. Cells are specs, not
// objects: NewCampaign builds the network from the spec, so a campaign spec
// is plain data.
type CellSpec struct {
	// Name labels the cell in progress events and results (defaults to
	// "topology/n" when empty).
	Name string `json:"name,omitempty"`
	// Topology is a name network.ByName accepts: line | ring | grid | star |
	// complete | rgg | two-node. An rgg cell is placed by the campaign's Seed.
	Topology string `json:"topology"`
	// N is the node count (grid uses the nearest square; two-node takes 0 or 2).
	N int `json:"n,omitempty"`
	// Diameter is the two-node cell's distance d (required, at least 1) and
	// the star / complete edge length (default 1). Line, ring, grid and rgg
	// derive theirs from N and refuse one; no cell takes a negative one.
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

// The caps on a spec's cell count and search budget. With the node count n
// capped by network.MaxNodes (2^10), a parent contributes at most
// 2n(1 + rate_windows) + 3·delay_mutations < 2^22 candidates to a
// generation, a generation holds at most beam times that (< 2^32), a cell at
// most 1 + rounds of those (< 2^42), and a plan at most maxCells cells
// (< 2^52): no valid spec can overflow Plan's int arithmetic.
const (
	maxCells          = 1024
	maxRounds         = 1024
	maxBeam           = 1024
	maxDelayMutations = 1024
	maxRateWindows    = 1024
)

// CampaignSpec is a whole campaign in plain data: the protocol, the cells,
// the move-set budget, and the adversary — everything needed to rebuild each
// cell's search.Options. It is the unit `gcssearch plan` bounds and
// `gcssearch run` searches.
type CampaignSpec struct {
	// Protocol is a name algorithms.ByName accepts (algorithms.Names).
	Protocol string `json:"protocol"`
	// Cells are searched one after another; each is its own Campaign.
	Cells []CellSpec `json:"cells"`
	// Rho is the drift bound ρ, in [0, 1). Absent, it is 1/2; an explicit
	// "0" is ρ = 0.
	Rho *rat.Rat `json:"rho,omitempty"`
	// Adversary seeds the search and serves as the tail for unscripted
	// decisions: a name engine.AdversaryByName accepts (default midpoint).
	// All of them are stateless; stateful bases enter searches only through
	// the programmatic API, where search refuses any it cannot clone.
	Adversary string `json:"adversary,omitempty"`
	// Seed feeds the random adversary and places rgg cells' nodes.
	Seed uint64 `json:"seed,omitempty"`
	// Objective is global | local | margin (default global). The margin
	// objective compares against the linear envelope f(d) = 1 + d.
	Objective string `json:"objective,omitempty"`

	// Search budget, zero meaning the search.Options default (RateWindows
	// zero: no windowed rate surgery). None may be negative, and each is
	// capped at 1024.
	Rounds         int     `json:"rounds,omitempty"`
	Beam           int     `json:"beam,omitempty"`
	DelayMutations int     `json:"delay_mutations,omitempty"`
	RateWindows    int     `json:"rate_windows,omitempty"`
	MutateTail     rat.Rat `json:"mutate_tail,omitempty"`
	// Threads bounds the search's evaluation pool (0 = GOMAXPROCS).
	Threads int `json:"threads,omitempty"`
}

// DecodeSpec decodes a campaign spec as `gcssearch` reads it: a key that
// names no spec or cell field is an error, not a default, and so is data
// after the object, as with json.Unmarshal. NewCampaign validates the rest.
func DecodeSpec(data []byte) (CampaignSpec, error) {
	var s CampaignSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return CampaignSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return CampaignSpec{}, fmt.Errorf("dist: data after the campaign spec")
	}
	return s, nil
}

// Campaign is a validated spec with every cell's network built: Plan counts
// and Run searches the networks NewCampaign built to validate the spec, so
// a command builds each network once.
type Campaign struct {
	spec CampaignSpec
	nets []*network.Network
}

// NewCampaign validates s and builds each cell's network. It checks the
// spec rebuilds: every cell's network, the protocol, the adversary, and the
// objective, with ρ in [0, 1), no negative budget, the cell count and search
// budget within their caps, no rate_windows under ρ = 0 (search refuses
// windows that can pin no rate), no negative diameter or diameter on a cell
// that derives it from n, and no n but 0 or 2 on a two-node cell.
func NewCampaign(s CampaignSpec) (*Campaign, error) {
	if len(s.Cells) == 0 {
		return nil, fmt.Errorf("dist: campaign has no cells")
	}
	for _, c := range []struct {
		name     string
		val, max int
	}{
		{"cells", len(s.Cells), maxCells},
		{"rounds", s.Rounds, maxRounds},
		{"beam", s.Beam, maxBeam},
		{"delay_mutations", s.DelayMutations, maxDelayMutations},
		{"rate_windows", s.RateWindows, maxRateWindows},
		{"threads", s.Threads, math.MaxInt},
	} {
		if c.val < 0 {
			return nil, fmt.Errorf("dist: negative %s %d", c.name, c.val)
		}
		if c.val > c.max {
			return nil, fmt.Errorf("dist: %d %s exceeds the cap of %d", c.val, c.name, c.max)
		}
	}
	rho := s.rho()
	if rho.Sign() < 0 || rho.GreaterEq(rat.FromInt(1)) {
		return nil, fmt.Errorf("dist: rho %s outside [0, 1)", rho)
	}
	if s.RateWindows > 0 && rho.IsZero() {
		return nil, fmt.Errorf("dist: rate_windows %d with rho 0: windowed surgery pins rates to 1−ρ and 1+ρ, so it needs rho > 0", s.RateWindows)
	}
	nets := make([]*network.Network, len(s.Cells))
	for i, cell := range s.Cells {
		// network.ByName reads a negative diameter as the default edge of 1,
		// and a line, ring, grid or rgg cell derives its own from n.
		switch {
		case cell.Diameter.Sign() < 0:
			return nil, fmt.Errorf("dist: cell %d (%s): negative diameter %s", i, cell.Label(), cell.Diameter)
		case !cell.Diameter.IsZero() && slices.Contains([]string{"line", "ring", "grid", "rgg"}, cell.Topology):
			return nil, fmt.Errorf("dist: cell %d (%s): diameter %s on a %s cell, which derives it from n", i, cell.Label(), cell.Diameter, cell.Topology)
		case cell.Topology == "two-node" && cell.N != 0 && cell.N != 2:
			return nil, fmt.Errorf("dist: cell %d (%s): n %d on a two-node cell, which has 2 nodes", i, cell.Label(), cell.N)
		}
		net, err := network.ByName(cell.Topology, cell.N, cell.Diameter, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("dist: cell %d: %w", i, err)
		}
		if cell.Duration.Sign() <= 0 {
			return nil, fmt.Errorf("dist: cell %d (%s): non-positive duration %s", i, cell.Label(), cell.Duration)
		}
		nets[i] = net
	}
	if _, err := algorithms.ByName(s.Protocol); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if _, err := engine.AdversaryByName(s.adversaryName(), s.Seed); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if _, err := search.ParseObjective(s.objectiveName()); err != nil {
		return nil, err
	}
	if s.MutateTail.Sign() < 0 || s.MutateTail.Greater(rat.FromInt(1)) {
		return nil, fmt.Errorf("dist: mutate_tail %s outside [0, 1]", s.MutateTail)
	}
	return &Campaign{spec: s, nets: nets}, nil
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
	if s.Rho == nil {
		return rat.MustFrac(1, 2)
	}
	return *s.Rho
}

// CellOptions builds the search.Options for cell i on the cell's network.
func (c *Campaign) CellOptions(i int) (search.Options, error) {
	s := &c.spec
	if i < 0 || i >= len(s.Cells) {
		return search.Options{}, fmt.Errorf("dist: cell %d of %d", i, len(s.Cells))
	}
	cell := s.Cells[i]
	proto, err := algorithms.ByName(s.Protocol)
	if err != nil {
		return search.Options{}, fmt.Errorf("dist: %w", err)
	}
	base, err := engine.AdversaryByName(s.adversaryName(), s.Seed)
	if err != nil {
		return search.Options{}, fmt.Errorf("dist: %w", err)
	}
	obj, err := search.ParseObjective(s.objectiveName())
	if err != nil {
		return search.Options{}, err
	}
	opt := search.Options{
		Net:            c.nets[i],
		Protocol:       proto,
		Duration:       cell.Duration,
		Rho:            s.rho(),
		Base:           base,
		Objective:      obj,
		Rounds:         s.Rounds,
		Beam:           s.Beam,
		DelayMutations: s.DelayMutations,
		RateWindows:    s.RateWindows,
		MutateTail:     s.MutateTail,
		Workers:        s.Threads,
	}
	if obj == search.ObjectiveGradientMargin {
		// Compare against the linear envelope f(d) = 1 + d: a margin > 0
		// certifies the searched execution breaks it.
		opt.Gradient = core.LinearGradient(rat.FromInt(1), rat.FromInt(1))
	}
	return opt, nil
}
