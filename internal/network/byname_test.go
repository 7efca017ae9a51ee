package network

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gcs/internal/rat"
)

// errUnknown marks a topology name a former parser did not know.
var errUnknown = fmt.Errorf("unknown topology")

// formerSimTopology is the topology switch gcssim -topology used before
// ByName: unit edges, rgg seeded by -seed.
func formerSimTopology(topology string, n int, seed uint64) (*Network, error) {
	switch topology {
	case "line":
		return Line(n)
	case "ring":
		return Ring(n)
	case "grid":
		return SquareGrid(n)
	case "star":
		return Star(n, rat.FromInt(1))
	case "complete":
		return Complete(n, rat.FromInt(1))
	case "rgg":
		return RandomGeometric(n, 10, 4.5, int64(seed))
	default:
		return nil, errUnknown
	}
}

// formerCellTopology is the topology switch a campaign cell used before
// ByName: Diameter as the two-node distance and, when positive, the star
// and complete edge length.
func formerCellTopology(topology string, n int, diameter rat.Rat) (*Network, error) {
	edge := rat.FromInt(1)
	if diameter.Sign() > 0 {
		edge = diameter
	}
	switch topology {
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
	case "two-node":
		if diameter.Sign() <= 0 {
			return nil, fmt.Errorf("two-node cell needs a positive diameter")
		}
		return TwoNode(diameter)
	default:
		return nil, errUnknown
	}
}

// sameNetwork reports how a and b differ in name, size, distances or
// adjacency, or "" when they are the same network.
func sameNetwork(a, b *Network) string {
	if a.Name() != b.Name() || a.N() != b.N() {
		return fmt.Sprintf("%s (%d nodes) vs %s (%d nodes)", a.Name(), a.N(), b.Name(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if !a.Dist(i, j).Equal(b.Dist(i, j)) {
				return fmt.Sprintf("d(%d,%d) = %s vs %s", i, j, a.Dist(i, j), b.Dist(i, j))
			}
		}
		if na, nb := a.Neighbors(i), b.Neighbors(i); !slices.Equal(na, nb) {
			return fmt.Sprintf("neighbors of %d: %v vs %v", i, na, nb)
		}
	}
	return ""
}

// TestByNameMatchesFormerParsers sweeps every topology name either former
// parser knew, across sizes from degenerate to past MaxNodes, and holds
// ByName to what each built: the same error-or-network, and the same name,
// distances and adjacency. gcssim passes unit edges and its -seed; a cell
// passes its Diameter and the campaign's seed. A name neither knew is an
// error. rgg stops short of MaxNodes: at 1,024 nodes its hop distances are
// a BFS from every node over about 670,000 edges, half a second a build.
func TestByNameMatchesFormerParsers(t *testing.T) {
	sizes := []int{-1, 0, 1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 33, 100, MaxNodes, MaxNodes + 1}
	diameters := []rat.Rat{{}, rat.FromInt(-1), rat.MustFrac(1, 2), rat.FromInt(1), rat.MustFrac(5, 2), rat.FromInt(16)}
	seeds := []uint64{1, 9, 1 << 63}
	check := func(label string, want, got *Network, wantErr, gotErr error) {
		t.Helper()
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Errorf("%s: former error %v, ByName error %v", label, wantErr, gotErr)
		case wantErr == nil:
			if diff := sameNetwork(want, got); diff != "" {
				t.Errorf("%s: %s", label, diff)
			}
		}
	}
	for _, name := range Names() {
		for _, n := range sizes {
			if name == "rgg" && n == MaxNodes {
				continue
			}
			big := n >= 100
			for si, seed := range seeds {
				if big && si > 0 {
					break
				}
				want, wantErr := formerSimTopology(name, n, seed)
				if wantErr == errUnknown {
					continue
				}
				got, gotErr := ByName(name, n, rat.FromInt(1), seed)
				check(fmt.Sprintf("gcssim -topology %s -n %d -seed %d", name, n, seed), want, got, wantErr, gotErr)
			}
			for di, d := range diameters {
				if big && di > 0 {
					break
				}
				want, wantErr := formerCellTopology(name, n, d)
				if wantErr == errUnknown {
					continue
				}
				got, gotErr := ByName(name, n, d, 7)
				check(fmt.Sprintf("cell %s n=%d diameter %s", name, n, d), want, got, wantErr, gotErr)
			}
		}
	}
	for _, name := range []string{"torus", "", "Line"} {
		if _, err := ByName(name, 5, rat.FromInt(1), 1); err == nil || !strings.Contains(err.Error(), "unknown topology") {
			t.Errorf("ByName(%q): error %v, want an unknown topology", name, err)
		}
	}
}
