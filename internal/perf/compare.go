package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The gate's thresholds: the relative rise of a benchmark's median that
// the pull-request gate tolerates, per gated unit.
const (
	MaxNsRegress     = 0.30 // ns/op may grow by 30%
	MaxAllocsRegress = 0.20 // allocs/op may grow by 20%
	MaxBytesRegress  = 0.20 // B/op may grow by 20%
)

// gatedUnits are the units the gate and the trend report read, in report
// order, each with its gate threshold. All are lower-is-better.
var gatedUnits = [...]struct {
	unit string
	max  float64
}{
	{"ns/op", MaxNsRegress},
	{"allocs/op", MaxAllocsRegress},
	{"B/op", MaxBytesRegress},
}

// Delta is one gated (benchmark, unit) comparison. Ratio is head/base − 1;
// a base median of zero with a nonzero head reports +Inf (any growth from
// zero is a regression).
type Delta struct {
	Bench    string
	Unit     string
	Base     float64
	Head     float64
	Ratio    float64
	Exceeded bool
}

// Compare gates head against base: for every benchmark present in both
// runs, the medians of ns/op, allocs/op and B/op are compared against
// MaxNsRegress, MaxAllocsRegress and MaxBytesRegress. Benchmarks present on
// only one side are skipped — a brand-new benchmark has no baseline to
// regress from, and a deleted one has nothing to protect.
func Compare(base, head map[string][]BenchLine) []Delta {
	names := make([]string, 0, len(head))
	for name := range head {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var out []Delta
	for _, name := range names {
		for _, gate := range gatedUnits {
			b, bok := medianOf(base[name], gate.unit)
			h, hok := medianOf(head[name], gate.unit)
			if !bok || !hok {
				continue
			}
			d := Delta{Bench: name, Unit: gate.unit, Base: b, Head: h, Ratio: ratio(b, h)}
			d.Exceeded = d.Ratio > gate.max
			out = append(out, d)
		}
	}
	return out
}

// ratio is after/before − 1, with growth from zero reported as +Inf.
func ratio(before, after float64) float64 {
	switch {
	case before == 0 && after == 0:
		return 0
	case before == 0:
		return math.Inf(1)
	}
	return after/before - 1
}

// medianOf returns the median of unit across a benchmark's repetitions,
// reporting false when no repetition carries the unit.
func medianOf(lines []BenchLine, unit string) (float64, bool) {
	vals := make([]float64, 0, len(lines))
	for _, l := range lines {
		if v, ok := l.Values[unit]; ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return median(vals), true
}

// median returns the median of vals, which it sorts in place.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Render formats deltas as an aligned report, flagging exceeded gates.
func Render(deltas []Delta) string {
	if len(deltas) == 0 {
		return "perf gate: no gated benchmarks present in both runs\n"
	}
	var b strings.Builder
	for _, d := range deltas {
		flag := "ok"
		if d.Exceeded {
			flag = "REGRESSION"
		}
		fmt.Fprintf(&b, "%-12s %-44s %-10s %14.1f → %14.1f  (%s)\n",
			flag, d.Bench, d.Unit, d.Base, d.Head, percent(d.Ratio))
	}
	return b.String()
}

// percent renders a ratio as a signed percentage, or "+Inf".
func percent(r float64) string {
	if math.IsInf(r, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%+.1f%%", r*100)
}

// Failures filters deltas down to exceeded gates.
func Failures(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Exceeded {
			out = append(out, d)
		}
	}
	return out
}
