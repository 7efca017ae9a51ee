// Package perf is the machinery behind the CI perf-regression gate and the
// local perf-trend report. It reads `go test -bench` output and nothing
// else: the gated benchmarks themselves are the Benchmark functions `make
// bench-gated` runs (the Makefile's GATED_BENCH list), each defined once in a
// _test.go file.
//
// Exact-metric snapshots (BENCH_*.json experiment tables) are deterministic
// and diff-checked in CI, but they cannot see a throughput regression: a
// change that doubles ns/op still produces identical tables. This package
// closes that gap:
//
//   - ParseBench + Compare implement the CI gate (cmd/perfgate): parse two
//     `go test -bench` outputs (merge base vs head), aggregate each
//     benchmark by median across -count repetitions, and flag any benchmark
//     whose ns/op rose past MaxNsRegress or allocs/op past MaxAllocsRegress.
//
//   - Trend reads a sequence of such outputs, oldest first, as the perf
//     history: each figure's median in every record and the drift of the
//     newest window of records against the window before it.
//
// `make bench-perf` commits one raw gated run as BENCH_perf.txt, and its
// committed revisions are the history `make perf-trend` reports on. Every
// gated benchmark reports steps/op, so ns/step is ns/op ÷ steps/op. Timing
// numbers are machine-dependent: the record is NOT diff-checked in CI.
package perf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BenchLine is one result line of `go test -bench` output: the benchmark
// name (with the trailing -GOMAXPROCS suffix stripped, so runs from machines
// with different core counts compare), the iteration count, and every
// reported value keyed by its unit ("ns/op", "allocs/op", "steps/cand", ...).
type BenchLine struct {
	Name   string
	Iters  int64
	Values map[string]float64
}

// ParseBench reads `go test -bench` output and groups result lines by
// benchmark name — with -count N, each benchmark yields N lines. Non-result
// lines (goos/pkg headers, PASS, warnings) are ignored, as are malformed
// result lines' trailing fields; a line whose shape cannot be parsed at all
// is an error, so a truncated bench file fails loudly instead of gating on
// partial data.
func ParseBench(r io.Reader) (map[string][]BenchLine, error) {
	out := make(map[string][]BenchLine)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		// "BenchmarkFoo" alone (no measurements) can appear when -v
		// interleaves; require an iteration count.
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			return nil, fmt.Errorf("perf: line %d: malformed benchmark line %q", lineNo, line)
		}
		bl := BenchLine{Name: trimProcs(fields[0]), Iters: iters, Values: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("perf: line %d: bad value %q in %q", lineNo, fields[i], line)
			}
			bl.Values[fields[i+1]] = v
		}
		out[bl.Name] = append(out[bl.Name], bl)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perf: read bench output: %w", err)
	}
	return out, nil
}

// trimProcs strips the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkFoo/sub=1-8" → "BenchmarkFoo/sub=1"). Only an
// all-digit suffix after the final dash is removed, so names that merely
// contain dashes survive.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
