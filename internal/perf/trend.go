package perf

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The trend report reads the perf history — bench records oldest first, in
// practice the committed revisions of BENCH_perf.txt — and prints every
// gated figure's median in each record, then the drift of the newest window
// of records against the window before it. The pairwise gate compares two
// commits and so can be walked past by a run of under-threshold rises; the
// windowed drift shows such a run, and a median on both sides means one
// noisy record can neither raise a flag nor hide one. It is a report, not a
// gate: each record is one run on whatever host made it.

const (
	// TrendWindow is the most records one window holds; N records give
	// windows of min(TrendWindow, N/2).
	TrendWindow = 5
	// MaxTrendRegress is the window-median rise past which a figure is
	// flagged (0.10 = +10%).
	MaxTrendRegress = 0.10
)

// TrendRow is one figure — a benchmark in one gated unit — across the
// records.
type TrendRow struct {
	Bench string
	Unit  string
	// Medians holds the figure's median in each record, oldest first, and
	// NaN where a record lacks the figure.
	Medians []float64
	// Prior and Recent are the medians of the window before the newest and
	// of the newest; Ratio is Recent/Prior − 1 and Exceeded marks Ratio >
	// MaxTrendRegress.
	Prior, Recent, Ratio float64
	Exceeded             bool
	// Skipped marks a figure missing from a record in either window: it has
	// no drift.
	Skipped bool
}

// TrendReport is the trend over a sequence of bench records.
type TrendReport struct {
	Records int
	// Window is the records per window, 0 when fewer than two records leave
	// nothing to compare.
	Window int
	// Rows holds one row per figure present in any record, by benchmark
	// name, then ns/op, allocs/op and B/op.
	Rows []TrendRow
}

// Trend reports every gated figure across records, oldest first.
func Trend(records []map[string][]BenchLine) TrendReport {
	rep := TrendReport{Records: len(records), Window: min(TrendWindow, len(records)/2)}
	seen := make(map[string]bool)
	var names []string
	for _, r := range records {
		for name := range r {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	first := len(records) - 2*rep.Window // the oldest record in the two windows
	for _, name := range names {
		for _, gate := range gatedUnits {
			row := TrendRow{Bench: name, Unit: gate.unit, Medians: make([]float64, len(records))}
			present := false
			for i, r := range records {
				m, ok := medianOf(r[name], gate.unit)
				if !ok {
					m = math.NaN()
				}
				row.Medians[i] = m
				present = present || ok
			}
			if !present {
				continue
			}
			switch {
			case rep.Window == 0:
			case slices.ContainsFunc(row.Medians[first:], math.IsNaN):
				row.Skipped = true
			default:
				row.Prior = median(slices.Clone(row.Medians[first : first+rep.Window]))
				row.Recent = median(slices.Clone(row.Medians[first+rep.Window:]))
				row.Ratio = ratio(row.Prior, row.Recent)
				row.Exceeded = row.Ratio > MaxTrendRegress
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// RenderTrend formats a trend report: a header naming the windows, then
// per figure its median in every record ("-" where the record lacks it) and
// its drift.
func RenderTrend(rep TrendReport) string {
	var b strings.Builder
	if rep.Window == 0 {
		fmt.Fprintf(&b, "perf trend over %d record(s): nothing to compare\n", rep.Records)
	} else {
		fmt.Fprintf(&b, "perf trend over %d records, oldest first; drift: median of the newest %d against the %d before, flagged past %s\n",
			rep.Records, rep.Window, rep.Window, percent(MaxTrendRegress))
	}
	for _, row := range rep.Rows {
		meds := make([]string, len(row.Medians))
		for i, m := range row.Medians {
			meds[i] = "-"
			if !math.IsNaN(m) {
				meds[i] = strconv.FormatFloat(m, 'f', -1, 64)
			}
			meds[i] = fmt.Sprintf("%10s", meds[i])
		}
		fmt.Fprintf(&b, "%-32s %-9s %s", row.Bench, row.Unit, strings.Join(meds, " → "))
		switch {
		case rep.Window == 0:
		case row.Skipped:
			b.WriteString("  skipped: missing from a windowed record")
		case row.Exceeded:
			fmt.Fprintf(&b, "  %7s  DRIFT", percent(row.Ratio))
		default:
			fmt.Fprintf(&b, "  %7s  ok", percent(row.Ratio))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
