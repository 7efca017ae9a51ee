package engine

// Allocation-budget regression tests for the engine hot path. The event
// queue recycles dispatched events through a slab free list, so in steady
// state Step allocates nothing of its own: every allocation charged here
// comes from the node callbacks (payload boxing, payload canonicalization
// for observers). These tests pin that property — a change that reintroduces
// per-event garbage fails them long before it shows up in a benchmark.

import (
	"runtime"
	"testing"

	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// metricsModes runs a subtest once uninstrumented and once with a full
// obs-backed Metrics set attached, asserting the same allocation budget in
// both: instrumentation is pre-registered atomic counters, so enabling it
// must not cost a single allocation per step.
func metricsModes(t *testing.T, run func(t *testing.T, met *Metrics)) {
	t.Run("bare", func(t *testing.T) { run(t, nil) })
	t.Run("instrumented", func(t *testing.T) {
		run(t, NewMetrics(obs.NewRegistry()))
	})
}

// pulseNode re-arms a timer forever and never sends: the pure engine loop
// (pop, dispatch, timer push) with no protocol-side allocations at all.
type pulseNode struct{}

func (pulseNode) Init(rt *Runtime) { rt.SetTimerAtHW(rat.FromInt(1), 1) }
func (pulseNode) OnTimer(rt *Runtime, _ int) {
	rt.SetTimerAtHW(rt.HW().Add(rat.FromInt(1)), 1)
}
func (pulseNode) OnMessage(*Runtime, int, Message) {}

type pulseProtocol struct{}

func (pulseProtocol) Name() string           { return "pulse" }
func (pulseProtocol) NewNode(int) Node       { return pulseNode{} }
func (pulseProtocol) CloneState(n Node) Node { return n }

// warm drives the engine past construction transients (init events, first
// slab growth) so the measured region is genuinely steady-state.
func warm(t *testing.T, eng *Engine, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		ok, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("engine drained after %d steps; workload must be self-sustaining", i)
		}
	}
}

func stepAllocs(t *testing.T, eng *Engine, runs int) float64 {
	t.Helper()
	avg := testing.AllocsPerRun(runs, func() {
		if ok, err := eng.Step(); err != nil || !ok {
			t.Fatalf("step failed mid-measurement: ok=%v err=%v", ok, err)
		}
	})
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestStepSteadyStateZeroAlloc pins the engine's own per-step cost at zero:
// a timer-only workload on the two-node cell, no observers, must dispatch
// with no allocations at all once warm — the slab free list absorbs every
// recycled event.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	metricsModes(t, func(t *testing.T, met *Metrics) {
		net, err := network.TwoNode(rat.FromInt(8))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(net, WithProtocol(pulseProtocol{}), WithRho(rf(1, 2)), WithMetrics(met))
		if err != nil {
			t.Fatal(err)
		}
		warm(t, eng, 64)
		if avg := stepAllocs(t, eng, 512); avg != 0 {
			t.Fatalf("steady-state Step on timer-only workload: %.2f allocs/step, want 0", avg)
		}
		if met != nil && met.Steps.Value() == 0 {
			t.Fatal("instrumented run advanced no step counter")
		}
	})
}

// TestStepSteadyStateBudgetLine pins the messaging budget on the E13-style
// line workload (5 gossiping nodes, no observers): the only allocations per
// step are the sender's payload boxing — the engine contributes none, and
// without observers no payload string is built. The budget of 1 allows one
// boxed payload per step on average with no headroom for engine-side
// garbage.
func TestStepSteadyStateBudgetLine(t *testing.T) {
	metricsModes(t, func(t *testing.T, met *Metrics) {
		eng := newTestEngine(t, 5, tickProtocol{period: ri(1)}, WithMetrics(met))
		warm(t, eng, 256)
		const budget = 1.0
		if avg := stepAllocs(t, eng, 1024); avg > budget {
			t.Fatalf("steady-state Step on gossip line: %.2f allocs/step, budget %.1f", avg, budget)
		}
	})
}

// TestStepSteadyStateBudgetObserved is the same line workload with an
// attached observer: each sent message additionally canonicalizes its
// payload exactly once (cached into the event, reused at delivery), so the
// budget rises by the cost of one MsgString per send — for echoMsg that is
// two allocations (rat string + concat). A third MsgString call per message,
// or any engine-side garbage, breaks the budget.
func TestStepSteadyStateBudgetObserved(t *testing.T) {
	metricsModes(t, func(t *testing.T, met *Metrics) {
		var count int
		eng := newTestEngine(t, 5, tickProtocol{period: ri(1)},
			WithObservers(Funcs{Action: func(trace.Action) { count++ }}),
			WithMetrics(met))
		warm(t, eng, 256)
		const budget = 2.5
		if avg := stepAllocs(t, eng, 1024); avg > budget {
			t.Fatalf("steady-state Step on observed gossip line: %.2f allocs/step, budget %.1f", avg, budget)
		}
		if count == 0 {
			t.Fatal("observer never fired; measurement did not cover the observed path")
		}
	})
}

// declPulseNode is pulseNode re-declaring its logical clock at every
// firing: a run whose declaration history grows by one entry per step.
type declPulseNode struct{ pulseNode }

func (n declPulseNode) OnTimer(rt *Runtime, id int) {
	rt.SetLogical(rt.Logical(), rat.FromInt(1))
	n.pulseNode.OnTimer(rt, id)
}

type declPulseProtocol struct{}

func (declPulseProtocol) Name() string           { return "decl-pulse" }
func (declPulseProtocol) NewNode(int) Node       { return declPulseNode{} }
func (declPulseProtocol) CloneState(n Node) Node { return n }

// TestForkCostIndependentOfHistory: the engine keeps only each node's
// current declaration, so what Fork allocates — bytes, not just allocation
// count — is the same after 256 steps and after 4,096 steps of a run whose
// nodes declare at every step. An engine that kept the declaration history
// would copy it into every fork.
func TestForkCostIndependentOfHistory(t *testing.T) {
	forkBytes := func(warmup int) uint64 {
		eng := newTestEngine(t, 5, declPulseProtocol{})
		warm(t, eng, warmup)
		// One processor and a collection first keep the runtime's own
		// allocations out of the count. Anything else that allocates
		// meanwhile only adds bytes, so the least of a few measurements is
		// Fork's own cost.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 16
		least := uint64(1 << 63)
		for k := 0; k < 5; k++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := eng.Fork(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	short, long := forkBytes(256), forkBytes(4096)
	if short != long {
		t.Fatalf("Fork allocates %d B after 256 declaring steps but %d B after 4096", short, long)
	}
}

// TestForkAllocBudget pins Fork's bulk-copy cost: a fixed number of slab
// copies plus one CloneState per node, independent of how many events are
// pending. The budgets are generous against today's measured cost (engine
// struct + 3 queue slices + pairSeq + runtimes + nodes + n node clones ≈
// 7 + n) but far below the old element-wise clone, which paid one
// allocation per pending event.
func TestForkAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		eng    func(t *testing.T, met *Metrics) *Engine
		n      int
		warmup int
	}{
		{
			name: "two-node-cell",
			eng: func(t *testing.T, met *Metrics) *Engine {
				net, err := network.TwoNode(rat.FromInt(8))
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(net, WithProtocol(tickProtocol{period: ri(1)}), WithRho(rf(1, 2)), WithMetrics(met))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			n:      2,
			warmup: 64,
		},
		{
			name: "e13-line",
			eng: func(t *testing.T, met *Metrics) *Engine {
				return newTestEngine(t, 5, tickProtocol{period: ri(1)}, WithMetrics(met))
			},
			n:      5,
			warmup: 256,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metricsModes(t, func(t *testing.T, met *Metrics) {
				eng := tc.eng(t, met)
				warm(t, eng, tc.warmup)
				budget := float64(12 + 2*tc.n)
				avg := testing.AllocsPerRun(64, func() {
					if _, err := eng.Fork(); err != nil {
						t.Fatal(err)
					}
				})
				if avg > budget {
					t.Fatalf("Fork with %d pending events: %.1f allocs, budget %.0f",
						eng.Pending(), avg, budget)
				}
				if met != nil && met.Forks.Value() == 0 {
					t.Fatal("instrumented Fork advanced no fork counter")
				}
			})
		})
	}
}
