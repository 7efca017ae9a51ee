package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const baseOut = `goos: linux
BenchmarkEngineStream/dur=32-8  3  100000 ns/op  40000 B/op  1000 allocs/op
BenchmarkEngineStream/dur=32-8  3  102000 ns/op  40000 B/op  1000 allocs/op
BenchmarkEngineStream/dur=32-8  3   98000 ns/op  40000 B/op  1000 allocs/op
BenchmarkSearchPrefixCached-8   2  500000 ns/op  80000 B/op  2000 allocs/op
BenchmarkUngated-8              9  100 ns/op     800 B/op    10 allocs/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePasses(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "500000 ns/op", "600000 ns/op") // +20% < 30%
	if err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head), io.Discard); err != nil {
		t.Fatalf("gate must pass within thresholds: %v", err)
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "500000 ns/op", "700000 ns/op") // +40% > 30%
	err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want gate failure, got %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	head := strings.ReplaceAll(baseOut, "2000 allocs/op", "2500 allocs/op") // +25% > 20%
	err := run(writeTemp(t, "base.txt", baseOut), writeTemp(t, "head.txt", head), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want gate failure, got %v", err)
	}
}

// TestGateGatesBytes: B/op is gated at +20%, so +25% fails and +15%
// passes.
func TestGateGatesBytes(t *testing.T) {
	base := writeTemp(t, "base.txt", baseOut)
	over := strings.ReplaceAll(baseOut, "80000 B/op", "100000 B/op") // +25% > 20%
	err := run(base, writeTemp(t, "over.txt", over), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("+25%% B/op: want gate failure, got %v", err)
	}
	within := strings.ReplaceAll(baseOut, "80000 B/op", "92000 B/op") // +15% < 20%
	if err := run(base, writeTemp(t, "within.txt", within), io.Discard); err != nil {
		t.Fatalf("+15%% B/op must pass: %v", err)
	}
}

// TestGateIgnoresUngatedBenchmarks: a benchmark the base did not run has no
// baseline, so however slow it is in the head it is not gated.
func TestGateIgnoresUngatedBenchmarks(t *testing.T) {
	base := strings.ReplaceAll(baseOut, "BenchmarkUngated-8              9  100 ns/op     800 B/op    10 allocs/op\n", "")
	head := strings.ReplaceAll(baseOut, "100 ns/op", "9000 ns/op")
	if err := run(writeTemp(t, "base.txt", base), writeTemp(t, "head.txt", head), io.Discard); err != nil {
		t.Fatalf("a benchmark only the head holds must not fail the gate: %v", err)
	}
}

func TestGateRejectsEmptyIntersection(t *testing.T) {
	err := run(writeTemp(t, "base.txt", "PASS\n"), writeTemp(t, "head.txt", baseOut), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no gated benchmarks") {
		t.Fatalf("empty intersection must be an error, got %v", err)
	}
}

// TestTrendReportsWithoutFailing: the trend report lists every figure with
// its median in each record and exits cleanly even when a figure drifted
// past the threshold — it is a report, not a gate.
func TestTrendReportsWithoutFailing(t *testing.T) {
	newer := strings.ReplaceAll(baseOut, "500000 ns/op", "700000 ns/op") // +40%
	var out strings.Builder
	err := runTrend([]string{writeTemp(t, "old.txt", baseOut), writeTemp(t, "new.txt", newer)}, &out)
	if err != nil {
		t.Fatalf("a drifting figure must not fail the report: %v", err)
	}
	report := out.String()
	for _, want := range []string{
		"median of the newest 1 against the 1 before",
		"BenchmarkSearchPrefixCached      ns/op         500000 →     700000   +40.0%  DRIFT\n",
		"BenchmarkEngineStream/dur=32     ns/op         100000 →     100000    +0.0%  ok\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if n := strings.Count(report, "\n"); n != 10 { // header + 3 benchmarks × 3 units
		t.Errorf("report has %d lines, want 10:\n%s", n, report)
	}
}

// TestTrendRejectsBadRecords: the report fails on no records and on a
// record it cannot read, cannot parse, or that holds no benchmark result.
func TestTrendRejectsBadRecords(t *testing.T) {
	good := writeTemp(t, "good.txt", baseOut)
	for name, paths := range map[string][]string{
		"no records": nil,
		"missing":    {good, filepath.Join(t.TempDir(), "missing.txt")},
		"malformed":  {good, writeTemp(t, "bad.txt", "BenchmarkX-8 3 notanumber ns/op\n")},
		"empty":      {writeTemp(t, "empty.txt", "PASS\n"), good},
	} {
		var out strings.Builder
		if err := runTrend(paths, &out); err == nil {
			t.Errorf("%s: want an error, got report:\n%s", name, out.String())
		}
	}
}

// TestMain runs the command itself instead of the tests when PERFGATE_MAIN
// is set, so a test can drive its flag parsing from a child process.
func TestMain(m *testing.M) {
	if os.Getenv("PERFGATE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsStrayArgument: flag parsing stops at the first argument that
// is not a flag, so outside -trend a positional argument is an error rather
// than the silent end of the flags.
func TestRejectsStrayArgument(t *testing.T) {
	bench := writeTemp(t, "bench.txt", baseOut)
	cmd := exec.Command(os.Args[0], "-base", bench, "-head", bench, "stray")
	cmd.Env = append(os.Environ(), "PERFGATE_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil || stdout.Len() != 0 || stderr.String() != "perfgate: unexpected argument \"stray\"\n" {
		t.Fatalf("exit %v, stdout %q, stderr %q; want a failure naming the stray argument", err, stdout.String(), stderr.String())
	}
}
