package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/scenario"
	"gcs/internal/trace"
)

// repoRoot is where the committed references live, seen from this package.
const repoRoot = ".."

// TestPerturbedReferenceFailsExactlyThatOperation runs one real pass, checks
// it clean against the committed references, then perturbs or deletes one
// expected row: exactly that operation must fail.
func TestPerturbedReferenceFailsExactlyThatOperation(t *testing.T) {
	for _, w := range []*workload{matrixWorkload, searchWorkload} {
		t.Run(w.name, func(t *testing.T) {
			p, err := setup(w, repoRoot, defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			results := p.pass(newEnv(nil), w.run)
			if failed, why := check(results, p.want); failed != 0 {
				t.Fatalf("clean pass: %d failed: %v", failed, why)
			}
			victim := p.ops[len(p.ops)/2].key
			for name, perturb := range map[string]func(want map[string]string){
				"reference": func(want map[string]string) { want[victim] += "!" },
				"no row":    func(want map[string]string) { delete(want, victim) },
			} {
				want := copyMap(p.want)
				perturb(want)
				failed, why := check(results, want)
				if failed != 1 || len(why) != 1 || !strings.HasPrefix(why[0], victim+": ") {
					t.Errorf("%s perturbed at %s: %d failed %v, want exactly %s", name, victim, failed, why, victim)
				}
			}
		})
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestMissingOrUnreadableReferenceIsError: no workload may run against a
// reference it cannot read.
func TestMissingOrUnreadableReferenceIsError(t *testing.T) {
	empty := t.TempDir()
	garbled := t.TempDir()
	for _, name := range []string{"BENCH_E13_long.json", "BENCH_matrix.json", "BENCH_suite.json", streamExpected} {
		path := filepath.Join(garbled, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, defaultSeed + 1} {
			for _, root := range []string{empty, garbled} {
				if _, err := setup(w, root, seed); err == nil {
					t.Errorf("%s seed %d root %s: setup succeeded without a readable reference", w.name, seed, root)
				}
			}
		}
	}
}

// TestSeedOrdersOperations: a seed permutes the operations, every operation
// has a reference row, and the same seed gives the same order.
func TestSeedOrdersOperations(t *testing.T) {
	for _, w := range workloads {
		order := func(seed int64) []string {
			p, err := setup(w, repoRoot, seed)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, o := range p.ops {
				if p.want[o.key] == "" {
					t.Errorf("%s: operation %s has no reference row", w.name, o.key)
				}
				keys = append(keys, o.key)
			}
			return keys
		}
		a, b := order(defaultSeed), order(defaultSeed+1)
		if !reflect.DeepEqual(a, order(defaultSeed)) {
			t.Errorf("%s: seed %d gives two orders", w.name, defaultSeed)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds %d and %d give the same order", w.name, defaultSeed, defaultSeed+1)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds run different operations", w.name)
		}
	}
}

// observingAdversary observes the run without being cloneable.
type observingAdversary struct{ engine.FractionAdversary }

func (observingAdversary) OnAction(trace.Action)     {}
func (observingAdversary) OnSend(trace.MsgRecord)    {}
func (observingAdversary) OnDeliver(trace.MsgRecord) {}

// TestWrappersChangeNothing runs, forks and finishes the same engine with
// and without the timing wrappers, for adversaries exercising every
// optional interface (hints, checked decisions, drops, stateful feedback)
// and for bulk- and per-node-cloning protocols: lanes, exact counts and
// skews must be identical, and the spans must have been recorded.
func TestWrappersChangeNothing(t *testing.T) {
	net, err := network.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	rho := rat.MustFrac(1, 2)
	dur := rat.FromInt(24)
	diverse, err := clock.Diverse(6, rat.FromInt(1), rat.MustFrac(5, 4), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// On unit rates the adversary's delay hint alone sets the tick scale.
	unit := make([]*clock.Schedule, 6)
	for i := range unit {
		unit[i] = clock.Constant(rat.FromInt(1))
	}
	adaptive := func() engine.Adversary {
		a, err := lowerbound.NewAdaptiveScheduler(net, 0, 5, lowerbound.AutoThreshold(rho, dur))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	loss := scenario.FaultModel{LossNum: 1, LossDen: 4, LossSeed: 9}
	advs := map[string]func() engine.Adversary{
		"hash":           func() engine.Adversary { return engine.HashAdversary{Seed: 5, Denom: 8} },
		"func (no hint)": func() engine.Adversary { return engine.FuncAdversary(engine.Midpoint().Delay) },
		"scripted":       func() engine.Adversary { return engine.ScriptedAdversary{Fallback: engine.Midpoint()} },
		"fault":          func() engine.Adversary { return scenario.FaultAdversary{Model: loss, Inner: engine.Midpoint()} },
		"fault+adaptive": func() engine.Adversary { return scenario.FaultAdversary{Model: loss, Inner: adaptive()} },
	}
	protos := []engine.Protocol{
		algorithms.Gradient(algorithms.DefaultGradientParams()),
		algorithms.MaxGossip(rat.FromInt(1)),
	}
	type outcome struct {
		lane         string
		counts       map[string]uint64
		trunk, forkd string
	}
	runOnce := func(scheds []*clock.Schedule, proto engine.Protocol, adv engine.Adversary, tr *tracer) outcome {
		e := newEnv(tr)
		skew, err := core.NewSkewTracker(net, scheds)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(net,
			engine.WithProtocol(wrapProtocol(proto, tr)),
			engine.WithAdversary(wrapAdversary(adv, tr)),
			engine.WithSchedules(scheds),
			engine.WithRho(rho),
			engine.WithMetrics(e.eng),
		)
		if err != nil {
			t.Fatal(err)
		}
		eng.Observe(wrapObserver(skew, tr))
		if err := eng.RunUntil(dur.Div(rat.FromInt(2))); err != nil {
			t.Fatal(err)
		}
		fork, err := eng.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fskew := skew.Clone()
		fork.Observe(wrapObserver(fskew, tr))
		for _, x := range []*engine.Engine{eng, fork} {
			if err := x.RunUntil(dur); err != nil {
				t.Fatal(err)
			}
		}
		return outcome{
			lane:   fmt.Sprintf("%s/%s scale %d", eng.TimeLane(), fork.TimeLane(), eng.FixedScale()),
			counts: counts(e),
			trunk:  skew.Global().Skew.String() + " " + skew.Local().Skew.String(),
			forkd:  fskew.Global().Skew.String() + " " + fskew.Local().Skew.String(),
		}
	}
	for sname, scheds := range map[string][]*clock.Schedule{"diverse": diverse, "unit": unit} {
		for name, mk := range advs {
			for _, proto := range protos {
				label := sname + "/" + name + "/" + proto.Name()
				tr := newTracer()
				plain := runOnce(scheds, proto, mk(), nil)
				timed := runOnce(scheds, proto, mk(), tr)
				if !reflect.DeepEqual(plain, timed) {
					t.Errorf("%s: wrapped run differs:\n plain %+v\n timed %+v", label, plain, timed)
				}
				if tr.calls[lHandler] == 0 || tr.calls[lAdversary] == 0 || tr.calls[lTracker] == 0 {
					t.Errorf("%s: spans not recorded: %v", label, tr.calls)
				}
				if len(tr.stack) != 0 {
					t.Errorf("%s: %d spans left open", label, len(tr.stack))
				}
			}
		}
	}

	// A stateful adversary that cannot be cloned stays uncloneable wrapped.
	if _, ok := engine.CloneAdversaryState(wrapAdversary(observingAdversary{engine.Midpoint()}, newTracer())); ok {
		t.Error("wrapped non-cloneable observing adversary reports cloneable")
	}
}
