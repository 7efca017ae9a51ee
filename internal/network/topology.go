// Random and structured topology generators for the scenario matrix.
//
// The paper's bounds are parameterized by the diameter D, so the scenario
// matrix needs families whose diameter scales independently of n: the torus
// (D ~ (w+h)/2), seeded d-regular random graphs (expanders, D ~ log n),
// Barabási–Albert scale-free graphs (small D via hubs), and bounded-degree
// random graphs (larger D at the same n). All generators report exact
// hop-count distances (BFS recomputed, matching footnote 2's
// delay-uncertainty-proportional-to-distance reading) and are deterministic
// for a fixed seed.
package network

import (
	"fmt"
	"math/rand"
	"sort"

	"gcs/internal/rat"
)

// hopDistances turns a symmetric adjacency into an exact hop-count distance
// matrix via BFS from every node, and errors if the graph is disconnected.
// It also sorts each neighbor list in place so generator output is canonical
// regardless of construction order.
func hopDistances(neighbors [][]int) ([][]rat.Rat, error) {
	n := len(neighbors)
	for i := range neighbors {
		sort.Ints(neighbors[i])
	}
	const unreach = -1
	hops := make([]int, n)
	dist := make([][]rat.Rat, n)
	for s := 0; s < n; s++ {
		for i := range hops {
			hops[i] = unreach
		}
		hops[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range neighbors[u] {
				if hops[v] == unreach {
					hops[v] = hops[u] + 1
					queue = append(queue, v)
				}
			}
		}
		dist[s] = make([]rat.Rat, n)
		for j := 0; j < n; j++ {
			if j == s {
				continue
			}
			if hops[j] == unreach {
				return nil, fmt.Errorf("network: nodes %d and %d share no path", s, j)
			}
			dist[s][j] = rat.FromInt(int64(hops[j]))
		}
	}
	return dist, nil
}

// addEdge records an undirected edge in the adjacency under construction.
func addEdge(neighbors [][]int, i, j int) {
	neighbors[i] = append(neighbors[i], j)
	neighbors[j] = append(neighbors[j], i)
}

// hasEdge reports whether {i, j} is already present (linear scan: generator
// adjacencies are bounded-degree).
func hasEdge(neighbors [][]int, i, j int) bool {
	for _, v := range neighbors[i] {
		if v == j {
			return true
		}
	}
	return false
}

// Torus returns the w×h torus: the grid with wraparound edges, so every node
// has degree 4 and the diameter is floor(w/2)+floor(h/2) — about half the
// equal-sized grid's. Node (x, y) has index y*w + x.
func Torus(w, h int) (*Network, error) {
	// Width or height 2 would duplicate the wraparound edge onto the grid
	// edge; require >= 3 in both dimensions, matching the grid convention
	// of rejecting shapes that collapse into a smaller family.
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("network: torus needs width and height >= 3, got %dx%d", w, h)
	}
	if err := checkGrid("torus", w, h); err != nil {
		return nil, err
	}
	n := w * h
	neighbors := make([][]int, n)
	for i := 0; i < n; i++ {
		x, y := i%w, i/w
		addEdge(neighbors, i, y*w+(x+1)%w)
		addEdge(neighbors, i, ((y+1)%h)*w+x)
	}
	dist, err := hopDistances(neighbors)
	if err != nil {
		return nil, err
	}
	return New(fmt.Sprintf("torus-%dx%d", w, h), dist, neighbors)
}

// DRegular returns a connected random d-regular graph on n nodes via the
// pairing (configuration) model: d stubs per node, a seeded shuffle, stubs
// paired consecutively. Pairings with self-loops, duplicate edges, or a
// disconnected result are rejected and the construction retried with a
// derived seed, so the output is deterministic in (n, d, seed). Random
// regular graphs with d >= 3 are expanders with high probability, giving the
// scenario matrix its D ~ log n family.
func DRegular(n, d int, seed int64) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: d-regular needs >= 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	if d < 2 || d >= n {
		return nil, fmt.Errorf("network: d-regular degree %d outside [2, %d]", d, n-1)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("network: d-regular needs n*d even, got %d*%d", n, d)
	}
	const maxAttempts = 256
attempt:
	for a := 0; a < maxAttempts; a++ {
		rng := rand.New(rand.NewSource(seed + int64(a)*0x9e3779b9))
		stubs := make([]int, 0, n*d)
		for i := 0; i < n; i++ {
			for k := 0; k < d; k++ {
				stubs = append(stubs, i)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		neighbors := make([][]int, n)
		for k := 0; k < len(stubs); k += 2 {
			i, j := stubs[k], stubs[k+1]
			if i == j || hasEdge(neighbors, i, j) {
				continue attempt
			}
			addEdge(neighbors, i, j)
		}
		dist, err := hopDistances(neighbors)
		if err != nil {
			continue attempt
		}
		return New(fmt.Sprintf("dreg-%d-d%d-seed%d", n, d, seed), dist, neighbors)
	}
	return nil, fmt.Errorf("network: no simple connected %d-regular graph on %d nodes after %d attempts (seed %d)", d, n, maxAttempts, seed)
}

// BarabasiAlbert returns a scale-free graph by preferential attachment: a
// complete core on m+1 nodes, then each new node attaches to m distinct
// existing nodes chosen proportionally to their degree (sampling the
// edge-endpoint multiset). Connected by construction; every node has degree
// >= m; hubs keep the diameter small as n grows. Deterministic in
// (n, m, seed).
func BarabasiAlbert(n, m int, seed int64) (*Network, error) {
	if m < 1 {
		return nil, fmt.Errorf("network: barabasi-albert needs attachment degree >= 1, got %d", m)
	}
	if n < m+2 {
		return nil, fmt.Errorf("network: barabasi-albert needs >= %d nodes for m=%d, got %d", m+2, m, n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	neighbors := make([][]int, n)
	// endpoints holds every edge endpoint once; uniform draws from it are
	// degree-proportional draws over nodes.
	var endpoints []int
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			addEdge(neighbors, i, j)
			endpoints = append(endpoints, i, j)
		}
	}
	for v := m + 1; v < n; v++ {
		targets := make(map[int]bool, m)
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			targets[t] = true
		}
		// Sorted iteration keeps edge insertion (and so endpoint growth)
		// deterministic: map iteration order must not leak into the graph.
		ts := make([]int, 0, m)
		for t := range targets {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		for _, t := range ts {
			addEdge(neighbors, v, t)
			endpoints = append(endpoints, v, t)
		}
	}
	dist, err := hopDistances(neighbors)
	if err != nil {
		return nil, err
	}
	return New(fmt.Sprintf("ba-%d-m%d-seed%d", n, m, seed), dist, neighbors)
}

// BoundedDegreeRandom returns a connected random graph in which every node
// has degree <= maxDeg: a random spanning tree grown under the cap, then up
// to n/2 extra random edges (skipped when they would collide or breach the
// cap). Without hubs the diameter stays comparatively large, complementing
// the expander and scale-free families. Deterministic in (n, maxDeg, seed).
func BoundedDegreeRandom(n, maxDeg int, seed int64) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("network: bounded-degree needs >= 2 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	if maxDeg < 2 {
		return nil, fmt.Errorf("network: bounded-degree needs max degree >= 2, got %d", maxDeg)
	}
	rng := rand.New(rand.NewSource(seed))
	neighbors := make([][]int, n)
	for v := 1; v < n; v++ {
		// Attach v to a uniformly random earlier node with spare degree.
		// One always exists: the first v nodes hold v-1 tree edges, so
		// their degree sum 2(v-1) is below the v*maxDeg capacity whenever
		// maxDeg >= 2.
		var candidates []int
		for u := 0; u < v; u++ {
			if len(neighbors[u]) < maxDeg {
				candidates = append(candidates, u)
			}
		}
		addEdge(neighbors, v, candidates[rng.Intn(len(candidates))])
	}
	for e := 0; e < n/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || hasEdge(neighbors, i, j) ||
			len(neighbors[i]) >= maxDeg || len(neighbors[j]) >= maxDeg {
			continue
		}
		addEdge(neighbors, i, j)
	}
	dist, err := hopDistances(neighbors)
	if err != nil {
		return nil, err
	}
	return New(fmt.Sprintf("bdr-%d-deg%d-seed%d", n, maxDeg, seed), dist, neighbors)
}
