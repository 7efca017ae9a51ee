package perf

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: gcs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineStream/dur=32-8   	       3	  39460716 ns/op	      6773 events/run	         2.899 globalSkew	 1806136 B/op	   27204 allocs/op
BenchmarkEngineStream/dur=32-8   	       3	  40160716 ns/op	      6773 events/run	         2.899 globalSkew	 1806136 B/op	   27188 allocs/op
BenchmarkEngineStream/dur=32-8   	       3	  38960716 ns/op	      6773 events/run	         2.899 globalSkew	 1806136 B/op	   27210 allocs/op
BenchmarkSearchPrefixCached-8    	       2	 512000000 ns/op	       311.0 steps/cand	       648.0 resim-steps/cand
PASS
ok  	gcs	0.644s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	stream := got["BenchmarkEngineStream/dur=32"]
	if len(stream) != 3 {
		t.Fatalf("want 3 repetitions of EngineStream, got %d (keys: %v)", len(stream), keys(got))
	}
	if stream[0].Iters != 3 {
		t.Fatalf("iters = %d, want 3", stream[0].Iters)
	}
	if v := stream[0].Values["ns/op"]; v != 39460716 {
		t.Fatalf("ns/op = %v", v)
	}
	if v := stream[0].Values["allocs/op"]; v != 27204 {
		t.Fatalf("allocs/op = %v", v)
	}
	cached := got["BenchmarkSearchPrefixCached"]
	if len(cached) != 1 {
		t.Fatalf("want 1 repetition of SearchPrefixCached, got %d", len(cached))
	}
	if v := cached[0].Values["steps/cand"]; v != 311 {
		t.Fatalf("steps/cand = %v", v)
	}
}

func TestParseBenchMalformed(t *testing.T) {
	if _, err := ParseBench(strings.NewReader("BenchmarkBroken 3 notanumber ns/op\n")); err == nil {
		t.Fatal("want error on malformed value")
	}
}

func TestTrimProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":           "BenchmarkFoo",
		"BenchmarkFoo/sub=1-16":    "BenchmarkFoo/sub=1",
		"BenchmarkFoo":             "BenchmarkFoo",
		"BenchmarkFoo-bar":         "BenchmarkFoo-bar",
		"BenchmarkSearchEndToEnd-": "BenchmarkSearchEndToEnd-",
	}
	for in, want := range cases {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func benchMap(name string, ns, allocs float64) map[string][]BenchLine {
	return map[string][]BenchLine{
		name: {{Name: name, Iters: 1, Values: map[string]float64{"ns/op": ns, "allocs/op": allocs}}},
	}
}

func TestGateCompare(t *testing.T) {
	// Within thresholds: +29% ns, +19% allocs.
	deltas := Compare(benchMap("BenchmarkX", 100, 100), benchMap("BenchmarkX", 129, 119))
	if len(deltas) != 2 {
		t.Fatalf("want 2 deltas, got %d", len(deltas))
	}
	if len(Failures(deltas)) != 0 {
		t.Fatalf("no failures expected, got %+v", Failures(deltas))
	}

	// ns/op over by a hair, allocs over its tighter gate.
	deltas = Compare(benchMap("BenchmarkX", 100, 100), benchMap("BenchmarkX", 131, 121))
	fails := Failures(deltas)
	if len(fails) != 2 {
		t.Fatalf("want both units to fail, got %+v", fails)
	}

	// allocs at exactly +20% is tolerated (strictly-greater gate).
	deltas = Compare(benchMap("BenchmarkX", 100, 100), benchMap("BenchmarkX", 100, 120))
	if len(Failures(deltas)) != 0 {
		t.Fatalf("boundary +20%% must pass, got %+v", Failures(deltas))
	}

	// Growth from a zero-alloc baseline is an infinite-ratio regression.
	deltas = Compare(benchMap("BenchmarkX", 100, 0), benchMap("BenchmarkX", 100, 1))
	fails = Failures(deltas)
	if len(fails) != 1 || !math.IsInf(fails[0].Ratio, 1) {
		t.Fatalf("zero-baseline alloc growth must fail with +Inf, got %+v", fails)
	}

	// Benchmarks present on only one side are skipped.
	deltas = Compare(benchMap("BenchmarkOld", 1, 1), benchMap("BenchmarkNew", 1000, 1000))
	if len(deltas) != 0 {
		t.Fatalf("disjoint benchmarks must not gate, got %+v", deltas)
	}
}

func TestGateCompareMedian(t *testing.T) {
	// The median must shrug off one noisy repetition.
	base := map[string][]BenchLine{"BenchmarkX": {
		{Values: map[string]float64{"ns/op": 100}},
		{Values: map[string]float64{"ns/op": 101}},
		{Values: map[string]float64{"ns/op": 102}},
	}}
	head := map[string][]BenchLine{"BenchmarkX": {
		{Values: map[string]float64{"ns/op": 100}},
		{Values: map[string]float64{"ns/op": 99}},
		{Values: map[string]float64{"ns/op": 900}}, // outlier
	}}
	deltas := Compare(base, head)
	if len(deltas) != 1 || deltas[0].Exceeded {
		t.Fatalf("median must discard the outlier, got %+v", deltas)
	}
	if deltas[0].Head != 100 {
		t.Fatalf("head median = %v, want 100", deltas[0].Head)
	}
}

// TestCommittedSnapshotReportsSteps: BENCH_perf.txt, the committed raw
// `make bench-perf` run, holds every benchmark the Makefile's GATED_BENCH
// names and nothing else, and every line carries the ns/op, allocs/op and
// steps/op a reader divides to get ns/step and allocs/step.
func TestCommittedSnapshotReportsSteps(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^GATED_BENCH = (.+)$`).FindSubmatch(makefile)
	if m == nil {
		t.Fatal("Makefile defines no GATED_BENCH")
	}
	gated := strings.Split(string(m[1]), "|")
	f, err := os.Open(filepath.Join("..", "..", "BENCH_perf.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ParseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for name, lines := range got {
		matched := false
		for _, g := range gated {
			if regexp.MustCompile(`^Benchmark` + g + `(/|$)`).MatchString(name) {
				seen[g], matched = true, true
			}
		}
		if !matched {
			t.Errorf("%s is not a gated benchmark", name)
		}
		for _, l := range lines {
			for _, unit := range []string{"ns/op", "allocs/op", "steps/op"} {
				if l.Values[unit] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, unit, l.Values[unit])
				}
			}
		}
	}
	for _, g := range gated {
		if !seen[g] {
			t.Errorf("gated benchmark %s is missing", g)
		}
	}
}

func keys(m map[string][]BenchLine) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
