package plot

import (
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func run(t *testing.T) *trace.Execution {
	t.Helper()
	net, err := network.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{
		clock.Constant(rat.MustFrac(5, 4)),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.FromInt(1)),
	}
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: engine.Midpoint(),
		Protocol:  algorithms.MaxGossip(rat.FromInt(1)),
		Duration:  rat.FromInt(16),
		Rho:       rat.MustFrac(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func TestTimeSeries(t *testing.T) {
	e := run(t)
	s := TimeSeries(e, 0, 3, 40)
	if len(s.Values) != 40 {
		t.Fatalf("values = %d", len(s.Values))
	}
	if s.Values[0] != 0 {
		t.Errorf("initial skew %f, want 0", s.Values[0])
	}
	// Skew never negative for the fast-head pair.
	for k, v := range s.Values {
		if v < 0 {
			t.Errorf("negative skew %f at sample %d", v, k)
		}
	}
	if s.Name != "L0-L3" {
		t.Errorf("name = %q", s.Name)
	}
}

func TestChart(t *testing.T) {
	e := run(t)
	out := Chart("skew", 8, TimeSeries(e, 0, 3, 50), TimeSeries(e, 0, 1, 50))
	if !strings.Contains(out, "skew") || !strings.Contains(out, "L0-L3") || !strings.Contains(out, "L0-L1") {
		t.Errorf("chart missing pieces:\n%s", out)
	}
	if strings.Count(out, "\n") < 10 {
		t.Errorf("chart too short:\n%s", out)
	}
	if !strings.ContainsAny(out, "*o") {
		t.Error("chart has no data glyphs")
	}
}

func TestChartDegenerate(t *testing.T) {
	if got := Chart("x", 5); got != "(no series)\n" {
		t.Errorf("empty chart = %q", got)
	}
	// Constant series: flat line, no division by zero.
	s := Series{Name: "flat", Values: []float64{2, 2, 2}}
	out := Chart("flat", 3, s)
	if !strings.Contains(out, "flat") {
		t.Error("flat chart broken")
	}
}

func TestBars(t *testing.T) {
	out := Bars("profile", []string{"d=1", "d=2"}, []float64{1, 2}, 20)
	if !strings.Contains(out, "d=1") || !strings.Contains(out, "█") {
		t.Errorf("bars broken:\n%s", out)
	}
	// All-zero values must not divide by zero.
	out = Bars("zeros", []string{"a"}, []float64{0}, 20)
	if !strings.Contains(out, "a") {
		t.Error("zero bars broken")
	}
}
