package search

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
)

// TestMetricsReconcileWithResult pins the instrument contract: the counters
// a Campaign advances as it merges each generation reconcile exactly with
// the final Result's accounting, the engines' own step counter equals the
// evaluations' steps plus the beam-entry replays', and attaching them
// changes no result byte.
func TestMetricsReconcileWithResult(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(16))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Net:            net,
		Protocol:       algorithms.Gradient(algorithms.DefaultGradientParams()),
		Duration:       rat.FromInt(32),
		Rho:            rat.MustFrac(1, 2),
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
		MutateTail:     rat.MustFrac(1, 2),
	}
	want, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	opt.Metrics = NewMetrics(reg)
	opt.EngineMetrics = engine.NewMetrics(reg)
	got, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Best.Equal(want.Best) || got.Evaluated != want.Evaluated || got.EngineSteps != want.EngineSteps {
		t.Fatalf("instrumentation changed the result: best %s vs %s, evaluated %d vs %d, steps %d vs %d",
			got.Best, want.Best, got.Evaluated, want.Evaluated, got.EngineSteps, want.EngineSteps)
	}

	m := opt.Metrics
	if m.EngineSteps.Value() != got.EngineSteps {
		t.Fatalf("engine-steps counter %d != Result.EngineSteps %d", m.EngineSteps.Value(), got.EngineSteps)
	}
	if m.CandidateSteps.Value() != got.CandidateSteps {
		t.Fatalf("candidate-steps counter %d != Result.CandidateSteps %d", m.CandidateSteps.Value(), got.CandidateSteps)
	}
	if m.Candidates.Value() != uint64(got.Evaluated) {
		t.Fatalf("candidates counter %d != Result.Evaluated %d", m.Candidates.Value(), got.Evaluated)
	}
	if m.Generations.Value() == 0 {
		t.Fatal("no generations counted")
	}
	if want := got.CandidateSteps - got.EngineSteps; m.PrefixSavedSteps.Value() != want {
		t.Fatalf("prefix-saved counter %d != CandidateSteps−EngineSteps %d", m.PrefixSavedSteps.Value(), want)
	}
	// Every beam entry is recorded by one replay of a candidate the search
	// evaluated, so the replays dispatch something, and less than re-running
	// every candidate would.
	if r := m.RecordSteps.Value(); r == 0 || r >= got.CandidateSteps {
		t.Fatalf("record-steps counter %d, want within (0, CandidateSteps %d)", r, got.CandidateSteps)
	}
	if e, want := opt.EngineMetrics.Steps.Value(), got.EngineSteps+m.RecordSteps.Value(); e != want {
		t.Fatalf("engine step counter %d != EngineSteps %d + RecordSteps %d", e, got.EngineSteps, m.RecordSteps.Value())
	}

	// The figures are live in the registry, not just on the struct.
	snap := reg.Snapshot()
	if ms, ok := snap.Get("gcs_search_engine_steps_total"); !ok || ms.Value != float64(got.EngineSteps) {
		t.Fatalf("registry snapshot engine steps = %v (present=%v), want %d", ms.Value, ok, got.EngineSteps)
	}
	if ms, ok := snap.Get("gcs_search_record_steps_total"); !ok || ms.Value != float64(m.RecordSteps.Value()) {
		t.Fatalf("registry snapshot record steps = %v (present=%v), want %d", ms.Value, ok, m.RecordSteps.Value())
	}
}
