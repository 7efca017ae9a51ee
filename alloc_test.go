package gcs_test

// Allocation pins for forking protocols with per-node estimate state. The
// engine-level fork budgets live in internal/engine/alloc_test.go, but that
// package cannot import the algorithms (they import the engine), so the
// gradient/LLW pins — the protocols whose per-node neighbor-estimate tables
// used to dominate fork cost — live here against the public facade.

import (
	"testing"

	"gcs"
)

// warmForkEngine builds and warms a line network so every node's estimate
// table is populated — the worst case the copy-on-write clone discipline has
// to keep cheap.
func warmForkEngine(t *testing.T, proto gcs.Protocol, n int) *gcs.Engine {
	t.Helper()
	net, err := gcs.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := gcs.DiverseSchedules(n, gcs.R(1), gcs.Frac(5, 4), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gcs.NewEngine(net,
		gcs.WithProtocol(proto),
		gcs.WithAdversary(gcs.HashAdversary{Seed: 7, Denom: 8}),
		gcs.WithSchedules(scheds),
		gcs.WithRho(gcs.Frac(1, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(gcs.R(16)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestForkAllocBudgetGradient pins Fork's allocation count on a wide warmed
// gradient line to O(1) in network width and degree: the estimate tables are
// shared copy-on-write and the clone set is slab-allocated, so the count
// must not scale with the 33 nodes. The map-backed estimate state this
// replaced cost ~3 allocations per node here; a regression to per-node deep
// copies blows this budget immediately.
func TestForkAllocBudgetGradient(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto gcs.Protocol
	}{
		{"gradient", gcs.Gradient(gcs.DefaultGradientParams())},
		{"llw", gcs.LLW(gcs.DefaultLLWParams())},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := warmForkEngine(t, tc.proto, 33)
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := eng.Fork(); err != nil {
					t.Fatal(err)
				}
			})
			// Measured: 8 allocs/op (queue slabs, runtime slab, pair
			// counters, node slab, engine header). Budget leaves slack for
			// layout drift while staying an order of magnitude under the
			// per-node regime.
			const budget = 16
			if allocs > budget {
				t.Fatalf("Fork on a warmed 33-node %s line: %.1f allocs/op, budget %d",
					tc.name, allocs, budget)
			}
		})
	}
}

// TestForkAllocIndependentOfWidth: doubling the line width must not move the
// fork allocation count — the slab-and-COW discipline is what makes Fork
// O(queue), not O(nodes × degree).
func TestForkAllocIndependentOfWidth(t *testing.T) {
	measure := func(n int) float64 {
		eng := warmForkEngine(t, gcs.Gradient(gcs.DefaultGradientParams()), n)
		return testing.AllocsPerRun(50, func() {
			if _, err := eng.Fork(); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := measure(17), measure(33)
	if wide > narrow+2 {
		t.Fatalf("fork allocs grew with width: %.1f at n=17 vs %.1f at n=33", narrow, wide)
	}
}
