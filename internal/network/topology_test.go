package network

import (
	"fmt"
	"strings"
	"testing"

	"gcs/internal/rat"
)

// generators under test, uniformly parameterized for the shared properties.
var topoCases = []struct {
	name  string
	build func() (*Network, error)
}{
	{"torus-3x4", func() (*Network, error) { return Torus(3, 4) }},
	{"torus-5x5", func() (*Network, error) { return Torus(5, 5) }},
	{"dreg-10-3", func() (*Network, error) { return DRegular(10, 3, 7) }},
	{"dreg-16-4", func() (*Network, error) { return DRegular(16, 4, 21) }},
	{"ba-12-2", func() (*Network, error) { return BarabasiAlbert(12, 2, 5) }},
	{"ba-20-1", func() (*Network, error) { return BarabasiAlbert(20, 1, 9) }},
	{"bdr-12-3", func() (*Network, error) { return BoundedDegreeRandom(12, 3, 3) }},
	{"bdr-16-4", func() (*Network, error) { return BoundedDegreeRandom(16, 4, 11) }},
}

// bfsHops recomputes hop distances from the published adjacency,
// independently of the generator's own BFS.
func bfsHops(w *Network, s int) []int {
	hops := make([]int, w.N())
	for i := range hops {
		hops[i] = -1
	}
	hops[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range w.Neighbors(u) {
			if hops[v] == -1 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}

func TestGeneratorDistancesMatchBFS(t *testing.T) {
	for _, tc := range topoCases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var diam int
			for i := 0; i < w.N(); i++ {
				hops := bfsHops(w, i)
				for j := 0; j < w.N(); j++ {
					if hops[j] < 0 {
						t.Fatalf("adjacency disconnected: no path %d -> %d", i, j)
					}
					if i != j && hops[j] > diam {
						diam = hops[j]
					}
					if !w.Dist(i, j).Equal(rat.FromInt(int64(hops[j]))) {
						t.Fatalf("Dist(%d,%d) = %s, BFS says %d", i, j, w.Dist(i, j), hops[j])
					}
				}
			}
			if !w.Diameter().Equal(rat.FromInt(int64(diam))) {
				t.Fatalf("Diameter() = %s, BFS recomputation says %d", w.Diameter(), diam)
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, tc := range topoCases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if a.Name() != b.Name() || a.N() != b.N() {
				t.Fatalf("rebuild differs: %s/%d vs %s/%d", a.Name(), a.N(), b.Name(), b.N())
			}
			for i := 0; i < a.N(); i++ {
				if fmt.Sprint(a.Neighbors(i)) != fmt.Sprint(b.Neighbors(i)) {
					t.Fatalf("node %d adjacency differs: %v vs %v", i, a.Neighbors(i), b.Neighbors(i))
				}
				for j := 0; j < a.N(); j++ {
					if !a.Dist(i, j).Equal(b.Dist(i, j)) {
						t.Fatalf("Dist(%d,%d) differs: %s vs %s", i, j, a.Dist(i, j), b.Dist(i, j))
					}
				}
			}
		})
	}
}

func TestGeneratorDegreeBounds(t *testing.T) {
	torus, err := Torus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < torus.N(); i++ {
		if len(torus.Neighbors(i)) != 4 {
			t.Fatalf("torus node %d has degree %d, want 4", i, len(torus.Neighbors(i)))
		}
	}
	dreg, err := DRegular(14, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dreg.N(); i++ {
		if len(dreg.Neighbors(i)) != 3 {
			t.Fatalf("d-regular node %d has degree %d, want 3", i, len(dreg.Neighbors(i)))
		}
	}
	ba, err := BarabasiAlbert(15, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ba.N(); i++ {
		if len(ba.Neighbors(i)) < 2 {
			t.Fatalf("scale-free node %d has degree %d, want >= 2", i, len(ba.Neighbors(i)))
		}
	}
	bdr, err := BoundedDegreeRandom(15, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bdr.N(); i++ {
		if d := len(bdr.Neighbors(i)); d < 1 || d > 3 {
			t.Fatalf("bounded-degree node %d has degree %d, want 1..3", i, d)
		}
	}
}

func TestTorusDiameter(t *testing.T) {
	// The torus diameter is floor(w/2) + floor(h/2).
	for _, c := range []struct {
		w, h int
		want int64
	}{
		{3, 3, 2}, {3, 4, 3}, {4, 4, 4}, {5, 5, 4}, {3, 7, 4},
	} {
		w, err := Torus(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Diameter().Equal(rat.FromInt(c.want)) {
			t.Errorf("Torus(%d,%d) diameter = %s, want %d", c.w, c.h, w.Diameter(), c.want)
		}
	}
}

// TestDegenerateSizesRejected pins the unified size validation: every
// constructor rejects shapes that collapse into a smaller family instead of
// silently building them.
func TestDegenerateSizesRejected(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Network, error)
	}{
		{"line-1", func() (*Network, error) { return Line(1) }},
		{"ring-2", func() (*Network, error) { return Ring(2) }},
		{"star-2", func() (*Network, error) { return Star(2, rat.FromInt(1)) }},
		{"complete-1", func() (*Network, error) { return Complete(1, rat.FromInt(1)) }},
		{"grid-1x5", func() (*Network, error) { return Grid2D(1, 5) }},
		{"grid-5x1", func() (*Network, error) { return Grid2D(5, 1) }},
		{"torus-2x3", func() (*Network, error) { return Torus(2, 3) }},
		{"torus-3x2", func() (*Network, error) { return Torus(3, 2) }},
		{"rgg-1", func() (*Network, error) { return RandomGeometric(1, 10, 4, 1) }},
		{"dreg-odd", func() (*Network, error) { return DRegular(5, 3, 1) }},
		{"dreg-deg-too-high", func() (*Network, error) { return DRegular(4, 4, 1) }},
		{"dreg-deg-too-low", func() (*Network, error) { return DRegular(6, 1, 1) }},
		{"ba-too-small", func() (*Network, error) { return BarabasiAlbert(3, 2, 1) }},
		{"bdr-deg-1", func() (*Network, error) { return BoundedDegreeRandom(6, 1, 1) }},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: degenerate size accepted, want error", tc.name)
		}
	}
}

// TestOversizedNetworksRejected: New and every generator refuse more than
// MaxNodes nodes with an error, before allocating the distance matrix —
// a huge count must neither run out of memory nor overflow.
func TestOversizedNetworksRejected(t *testing.T) {
	one := rat.FromInt(1)
	for _, n := range []int{MaxNodes + 1, 1 << 40} {
		cases := []struct {
			name  string
			build func() (*Network, error)
		}{
			{"new", func() (*Network, error) {
				return New("x", make([][]rat.Rat, min(n, MaxNodes+1)), make([][]int, min(n, MaxNodes+1)))
			}},
			{"line", func() (*Network, error) { return Line(n) }},
			{"ring", func() (*Network, error) { return Ring(n) }},
			{"complete", func() (*Network, error) { return Complete(n, one) }},
			{"star", func() (*Network, error) { return Star(n, one) }},
			{"grid", func() (*Network, error) { return Grid2D(2, n/2+1) }},
			{"square grid", func() (*Network, error) { return SquareGrid(n) }},
			{"torus", func() (*Network, error) { return Torus(n/3+1, 3) }},
			{"rgg", func() (*Network, error) { return RandomGeometric(n, 10, 4, 1) }},
			{"dreg", func() (*Network, error) { return DRegular(n+1, 3, 1) }},
			{"ba", func() (*Network, error) { return BarabasiAlbert(n, 2, 1) }},
			{"bdr", func() (*Network, error) { return BoundedDegreeRandom(n, 3, 1) }},
		}
		for _, tc := range cases {
			if _, err := tc.build(); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
				t.Errorf("%s, %d nodes: error %v, want the node cap", tc.name, n, err)
			}
		}
	}
	if _, err := Grid2D(1<<62, 1<<62); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
		t.Errorf("grid whose node count overflows: error %v, want the node cap", err)
	}
}

// TestSquareGrid: the largest square grid with at most n nodes, up to the
// cap exactly.
func TestSquareGrid(t *testing.T) {
	for _, tc := range []struct{ n, side int }{{4, 2}, {10, 3}, {16, 4}, {MaxNodes, 32}} {
		w, err := SquareGrid(tc.n)
		if err != nil {
			t.Fatalf("SquareGrid(%d): %v", tc.n, err)
		}
		if w.N() != tc.side*tc.side {
			t.Errorf("SquareGrid(%d) has %d nodes, want %d", tc.n, w.N(), tc.side*tc.side)
		}
	}
	if _, err := SquareGrid(3); err == nil {
		t.Error("SquareGrid(3) accepted: a 1×1 grid is not a grid")
	}
}
