package engine

import (
	"testing"

	"gcs/internal/obs"
)

// TestMetricsCountSteps pins the instrument semantics: Steps mirrors
// Engine.Steps across both driving APIs, and a fork keeps aggregating into
// the same instruments.
func TestMetricsCountSteps(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)}, WithMetrics(met))
	for i := 0; i < 10; i++ {
		ok, err := eng.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if met.Steps.Value() != eng.Steps() {
		t.Fatalf("Steps counter %d != engine steps %d", met.Steps.Value(), eng.Steps())
	}
	if err := eng.RunUntil(ri(4)); err != nil {
		t.Fatal(err)
	}
	if met.Steps.Value() != eng.Steps() {
		t.Fatalf("after RunUntil: Steps counter %d != engine steps %d", met.Steps.Value(), eng.Steps())
	}

	fork, err := eng.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if met.Forks.Value() != 1 {
		t.Fatalf("Forks = %d, want 1", met.Forks.Value())
	}
	before := met.Steps.Value()
	if err := fork.RunFor(ri(2)); err != nil {
		t.Fatal(err)
	}
	if met.Steps.Value() != before+(fork.Steps()-eng.Steps()) {
		t.Fatalf("fork steps did not aggregate into the shared counter")
	}
}
