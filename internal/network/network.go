// Package network defines topologies for the gradient clock synchronization
// model.
//
// Following §3 of Fan & Lynch (PODC 2004), the "distance" d(i,j) between two
// nodes is the *uncertainty in message delay* between them: a message from i
// to j takes between 0 and d(i,j) time to arrive. The diameter D is the
// maximum distance, and distances are normalized so min_{i≠j} d(i,j) = 1.
//
// A Network also carries a gossip adjacency (which pairs exchange messages in
// the synchronization algorithms). In the line networks used by the
// lower-bound constructions, neighbors are the distance-1 pairs; messages
// between non-adjacent nodes are still possible in the model, and the
// distance matrix bounds their delays.
package network

import (
	"fmt"
	"math/rand"
	"strings"

	"gcs/internal/rat"
)

// MaxNodes caps the size of every network. A network holds a dense n×n
// distance matrix, so 1,024 nodes is about 25 MB; New and every generator
// refuse a larger network before allocating it.
const MaxNodes = 1024

// checkNodes rejects a node count above MaxNodes.
func checkNodes(n int) error {
	if n > MaxNodes {
		return fmt.Errorf("network: %d nodes exceeds the cap of %d", n, MaxNodes)
	}
	return nil
}

// checkGrid rejects a w×h grid-like network (kind names it) with more than
// MaxNodes nodes, without overflowing w·h. w and h must be positive.
func checkGrid(kind string, w, h int) error {
	if w > MaxNodes/h {
		return fmt.Errorf("network: %dx%d %s exceeds the cap of %d nodes", w, h, kind, MaxNodes)
	}
	return nil
}

// Network is an immutable set of nodes with pairwise distances (message
// delay uncertainties) and a gossip adjacency.
type Network struct {
	name      string
	n         int
	dist      [][]rat.Rat
	neighbors [][]int
}

// New builds a network from an explicit distance matrix and adjacency.
// The matrix must be square, symmetric, zero on the diagonal, and >= 1 off
// the diagonal (the paper's unit-distance normalization), with at most
// MaxNodes rows.
func New(name string, dist [][]rat.Rat, neighbors [][]int) (*Network, error) {
	n := len(dist)
	if n < 2 {
		return nil, fmt.Errorf("network: need at least 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	if len(neighbors) != n {
		return nil, fmt.Errorf("network: adjacency size %d != %d nodes", len(neighbors), n)
	}
	one := rat.FromInt(1)
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("network: row %d has %d entries, want %d", i, len(dist[i]), n)
		}
		if !dist[i][i].IsZero() {
			return nil, fmt.Errorf("network: d(%d,%d) = %s, want 0", i, i, dist[i][i])
		}
		for j := range dist[i] {
			if i == j {
				continue
			}
			if !dist[i][j].Equal(dist[j][i]) {
				return nil, fmt.Errorf("network: d(%d,%d)=%s != d(%d,%d)=%s", i, j, dist[i][j], j, i, dist[j][i])
			}
			if dist[i][j].Less(one) {
				return nil, fmt.Errorf("network: d(%d,%d)=%s < 1 violates unit normalization", i, j, dist[i][j])
			}
		}
	}
	for i, ns := range neighbors {
		for _, j := range ns {
			if j < 0 || j >= n || j == i {
				return nil, fmt.Errorf("network: node %d has invalid neighbor %d", i, j)
			}
		}
	}
	return &Network{name: name, n: n, dist: dist, neighbors: neighbors}, nil
}

// Name returns a human-readable topology name.
func (w *Network) Name() string { return w.name }

// N returns the number of nodes.
func (w *Network) N() int { return w.n }

// Dist returns d(i,j), the message delay uncertainty between i and j.
func (w *Network) Dist(i, j int) rat.Rat { return w.dist[i][j] }

// Neighbors returns the gossip neighbors of node i. The caller must not
// modify the returned slice.
func (w *Network) Neighbors(i int) []int { return w.neighbors[i] }

// Diameter returns D = max_{i,j} d(i,j).
func (w *Network) Diameter() rat.Rat {
	var d rat.Rat
	for i := 0; i < w.n; i++ {
		for j := i + 1; j < w.n; j++ {
			d = rat.Max(d, w.dist[i][j])
		}
	}
	return d
}

// Pairs calls fn for every unordered pair i < j.
func (w *Network) Pairs(fn func(i, j int)) {
	for i := 0; i < w.n; i++ {
		for j := i + 1; j < w.n; j++ {
			fn(i, j)
		}
	}
}

// Line returns the canonical lower-bound topology: nodes 0..n-1 on a line
// with d(i,j) = |i-j| and gossip edges between consecutive nodes. (The paper
// numbers nodes 1..D; we use 0-based indices, so the diameter is n-1.)
func Line(n int) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: line needs >= 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	dist := make([][]rat.Rat, n)
	neighbors := make([][]int, n)
	for i := range dist {
		dist[i] = make([]rat.Rat, n)
		for j := range dist[i] {
			d := int64(i - j)
			if d < 0 {
				d = -d
			}
			dist[i][j] = rat.FromInt(d)
		}
		switch {
		case i == 0:
			neighbors[i] = []int{1}
		case i == n-1:
			neighbors[i] = []int{n - 2}
		default:
			neighbors[i] = []int{i - 1, i + 1}
		}
	}
	return New(fmt.Sprintf("line-%d", n), dist, neighbors)
}

// TwoNode returns two nodes at distance d >= 1, used by the Ω(d) shift
// argument.
func TwoNode(d rat.Rat) (*Network, error) {
	if d.Less(rat.FromInt(1)) {
		return nil, fmt.Errorf("network: two-node distance %s < 1", d)
	}
	dist := [][]rat.Rat{
		{{}, d},
		{d, {}},
	}
	return New(fmt.Sprintf("two-node-%s", d), dist, [][]int{{1}, {0}})
}

// Complete returns a complete network on n nodes with all distances d.
func Complete(n int, d rat.Rat) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: complete needs >= 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	if d.Less(rat.FromInt(1)) {
		return nil, fmt.Errorf("network: complete distance %s < 1", d)
	}
	dist := make([][]rat.Rat, n)
	neighbors := make([][]int, n)
	for i := range dist {
		dist[i] = make([]rat.Rat, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = d
				neighbors[i] = append(neighbors[i], j)
			}
		}
	}
	return New(fmt.Sprintf("complete-%d", n), dist, neighbors)
}

// Ring returns n nodes on a cycle with hop-count distances and gossip edges
// between cycle-adjacent nodes.
func Ring(n int) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("network: ring needs >= 3 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	dist := make([][]rat.Rat, n)
	neighbors := make([][]int, n)
	for i := range dist {
		dist[i] = make([]rat.Rat, n)
		for j := range dist[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			if n-d < d {
				d = n - d
			}
			dist[i][j] = rat.FromInt(int64(d))
		}
		neighbors[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	return New(fmt.Sprintf("ring-%d", n), dist, neighbors)
}

// Grid2D returns a w×h grid with Manhattan (hop-count) distances and gossip
// edges between grid-adjacent nodes. Node (x, y) has index y*w + x.
func Grid2D(w, h int) (*Network, error) {
	// A width- or height-1 grid is a line, not a grid: require both
	// dimensions >= 2 so the degenerate shapes fail loudly (use Line)
	// instead of silently collapsing.
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("network: grid needs width and height >= 2, got %dx%d", w, h)
	}
	if err := checkGrid("grid", w, h); err != nil {
		return nil, err
	}
	n := w * h
	dist := make([][]rat.Rat, n)
	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		xi, yi := i%w, i/w
		dist[i] = make([]rat.Rat, n)
		for j := 0; j < n; j++ {
			xj, yj := j%w, j/w
			dx, dy := xi-xj, yi-yj
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			dist[i][j] = rat.FromInt(int64(dx + dy))
		}
		if xi > 0 {
			neighbors[i] = append(neighbors[i], i-1)
		}
		if xi < w-1 {
			neighbors[i] = append(neighbors[i], i+1)
		}
		if yi > 0 {
			neighbors[i] = append(neighbors[i], i-w)
		}
		if yi < h-1 {
			neighbors[i] = append(neighbors[i], i+w)
		}
	}
	return New(fmt.Sprintf("grid-%dx%d", w, h), dist, neighbors)
}

// SquareGrid returns the largest square grid with at most n nodes, of side
// ⌊√n⌋: n = 10 gives the 3×3 grid, and n < 4 or n > MaxNodes is an error.
func SquareGrid(n int) (*Network, error) {
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return Grid2D(side, side)
}

// Star returns a star network: node 0 is the hub at distance d from every
// leaf; leaves are at distance 2d from each other. Used to model RBS-style
// beacon topologies (hub = beacon).
func Star(n int, d rat.Rat) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("network: star needs >= 3 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	if d.Less(rat.FromInt(1)) {
		return nil, fmt.Errorf("network: star distance %s < 1", d)
	}
	two := rat.FromInt(2)
	dist := make([][]rat.Rat, n)
	neighbors := make([][]int, n)
	for i := range dist {
		dist[i] = make([]rat.Rat, n)
		for j := range dist[i] {
			switch {
			case i == j:
			case i == 0 || j == 0:
				dist[i][j] = d
			default:
				dist[i][j] = two.Mul(d)
			}
		}
		if i == 0 {
			for j := 1; j < n; j++ {
				neighbors[0] = append(neighbors[0], j)
			}
		} else {
			neighbors[i] = []int{0}
		}
	}
	return New(fmt.Sprintf("star-%d", n), dist, neighbors)
}

// RandomGeometric places n nodes uniformly in a side×side square (integer
// grid coordinates) and connects nodes within connectRadius. Distances are
// hop counts along shortest paths (so delay uncertainty is proportional to
// hop distance, matching the paper's footnote 2); unreachable pairs make the
// construction fail. Deterministic for a fixed seed.
func RandomGeometric(n int, side int64, connectRadius float64, seed int64) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: random geometric needs >= 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * float64(side)
		ys[i] = rng.Float64() * float64(side)
	}
	neighbors := make([][]int, n)
	r2 := connectRadius * connectRadius
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				neighbors[i] = append(neighbors[i], j)
			}
		}
	}
	dist, err := hopDistances(neighbors)
	if err != nil {
		return nil, fmt.Errorf("network: random geometric graph disconnected (seed %d)", seed)
	}
	return New(fmt.Sprintf("rgg-%d-seed%d", n, seed), dist, neighbors)
}

// Names lists the topology names ByName accepts.
func Names() []string {
	return []string{"line", "ring", "grid", "star", "complete", "rgg", "two-node"}
}

// ByName builds the named topology: the one topology-name parser behind
// gcssim -topology and a campaign spec's cells. n is the node count (grid
// takes the largest square with at most n nodes; two-node ignores n). d is
// the two-node distance and the star and complete edge length, 1 when d is
// not positive (a two-node network needs d >= 1). rgg places n nodes in a
// 10×10 square from seed and joins those within 4.5 of each other.
func ByName(name string, n int, d rat.Rat, seed uint64) (*Network, error) {
	edge := d
	if edge.Sign() <= 0 {
		edge = rat.FromInt(1)
	}
	switch name {
	case "line":
		return Line(n)
	case "ring":
		return Ring(n)
	case "grid":
		return SquareGrid(n)
	case "star":
		return Star(n, edge)
	case "complete":
		return Complete(n, edge)
	case "rgg":
		return RandomGeometric(n, 10, 4.5, int64(seed))
	case "two-node":
		return TwoNode(d)
	default:
		return nil, fmt.Errorf("network: unknown topology %q (want %s)", name, strings.Join(Names(), " | "))
	}
}
