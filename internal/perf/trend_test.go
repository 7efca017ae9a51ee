package perf

import (
	"strings"
	"testing"
)

// records builds one bench record per value: in each, benchmark name
// carries the value in unit.
func records(name, unit string, vals ...float64) []map[string][]BenchLine {
	out := make([]map[string][]BenchLine, len(vals))
	for i, v := range vals {
		out[i] = map[string][]BenchLine{name: {{Name: name, Values: map[string]float64{unit: v}}}}
	}
	return out
}

// onlyRow returns the report's one row.
func onlyRow(t *testing.T, rep TrendReport) TrendRow {
	t.Helper()
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rep.Rows), rep.Rows)
	}
	return rep.Rows[0]
}

func TestTrendFlagsWindowedRegression(t *testing.T) {
	rep := Trend(records("BenchmarkX", "ns/op", 100, 100, 100, 100, 100, 200, 200, 200, 200, 200))
	if rep.Window != 5 {
		t.Fatalf("window %d over 10 records, want 5", rep.Window)
	}
	r := onlyRow(t, rep)
	if !r.Exceeded {
		t.Fatalf("100→200 window medians not flagged: %+v", r)
	}
	if r.Prior != 100 || r.Recent != 200 || r.Ratio != 1.0 {
		t.Fatalf("prior=%v recent=%v ratio=%v, want 100/200/1.0", r.Prior, r.Recent, r.Ratio)
	}
	if len(r.Medians) != 10 || r.Medians[0] != 100 || r.Medians[9] != 200 {
		t.Fatalf("medians %v, want one per record", r.Medians)
	}
}

func TestTrendMedianAbsorbsOneSpike(t *testing.T) {
	for _, tc := range []struct {
		vals    []float64
		flagged bool
	}{
		// One noisy record in either window must not raise a flag: the
		// window medians ignore it, wherever it sits.
		{[]float64{100, 100, 100, 100, 100, 100, 100, 500, 100, 100}, false},
		{[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 500}, false},
		{[]float64{50, 100, 100, 100, 100, 100, 100, 100, 100, 100}, false},
		// And symmetrically: one fast outlier must not mask a real
		// regression.
		{[]float64{100, 100, 100, 100, 100, 200, 200, 50, 200, 200}, true},
		{[]float64{100, 100, 100, 100, 100, 200, 200, 200, 200, 50}, true},
	} {
		if r := onlyRow(t, Trend(records("BenchmarkX", "ns/op", tc.vals...))); r.Exceeded != tc.flagged {
			t.Errorf("%v: flagged %v, want %v: %+v", tc.vals, r.Exceeded, tc.flagged, r)
		}
	}
}

func TestTrendSkipsShortSeries(t *testing.T) {
	// Fewer than two records leave nothing to compare; the one record's
	// medians are still listed.
	for _, recs := range [][]map[string][]BenchLine{nil, records("BenchmarkX", "ns/op", 100)} {
		rep := Trend(recs)
		if rep.Window != 0 {
			t.Fatalf("%d record(s) give window %d, want 0", len(recs), rep.Window)
		}
		for _, r := range rep.Rows {
			if r.Exceeded || r.Skipped {
				t.Fatalf("row without a comparison is flagged or skipped: %+v", r)
			}
		}
		if out := RenderTrend(rep); !strings.Contains(out, "nothing to compare") {
			t.Fatalf("render = %q", out)
		}
	}
	// Nine records compare windows of four, the most that fit twice.
	if rep := Trend(records("BenchmarkX", "ns/op", 1, 1, 1, 1, 1, 1, 1, 1, 1)); rep.Window != 4 {
		t.Fatalf("window %d over 9 records, want 4", rep.Window)
	}
}

func TestTrendSeparatesUnits(t *testing.T) {
	// The same benchmark's ns/op and allocs/op figures are independent
	// series: an allocs regression is flagged even when ns/op is flat.
	var recs []map[string][]BenchLine
	for i := 0; i < 4; i++ {
		allocs := 10.0
		if i >= 2 {
			allocs = 20
		}
		recs = append(recs, map[string][]BenchLine{"BenchmarkX": {
			{Values: map[string]float64{"ns/op": 100, "allocs/op": allocs}},
		}})
	}
	rep := Trend(recs)
	if rep.Window != 2 || len(rep.Rows) != 2 {
		t.Fatalf("window %d, %d rows; want 2 and 2", rep.Window, len(rep.Rows))
	}
	ns, allocs := rep.Rows[0], rep.Rows[1]
	if ns.Unit != "ns/op" || allocs.Unit != "allocs/op" {
		t.Fatalf("row units %s, %s; want ns/op then allocs/op", ns.Unit, allocs.Unit)
	}
	if ns.Exceeded {
		t.Fatal("flat ns/op flagged")
	}
	if !allocs.Exceeded {
		t.Fatal("doubled allocs/op not flagged")
	}
	if !strings.Contains(RenderTrend(rep), "DRIFT") {
		t.Fatal("render missing the drift flag")
	}
}

// TestTrendFlagsDriftUnderPairwiseGate: +20% a record passes the pairwise
// gate at every step, and the windowed drift still shows it.
func TestTrendFlagsDriftUnderPairwiseGate(t *testing.T) {
	vals := []float64{100}
	for len(vals) < 10 {
		vals = append(vals, vals[len(vals)-1]*1.2)
	}
	recs := records("BenchmarkX", "ns/op", vals...)
	for i := 1; i < len(recs); i++ {
		if fails := Failures(Compare(recs[i-1], recs[i])); len(fails) != 0 {
			t.Fatalf("step %d fails the pairwise gate: %+v", i, fails)
		}
	}
	if r := onlyRow(t, Trend(recs)); !r.Exceeded {
		t.Fatalf("a +20%%-a-record drift is not flagged: %+v", r)
	}
	// The trend flags past +10%, well inside the gate's +30%.
	if r := onlyRow(t, Trend(records("BenchmarkX", "ns/op", 100, 112))); !r.Exceeded {
		t.Fatalf("+12%% is not flagged: %+v", r)
	}
	if r := onlyRow(t, Trend(records("BenchmarkX", "ns/op", 100, 109))); r.Exceeded {
		t.Fatalf("+9%% is flagged: %+v", r)
	}
}

func TestTrendFlatRecordsNotFlagged(t *testing.T) {
	for _, n := range []int{2, 3, 10, 12} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 100
		}
		r := onlyRow(t, Trend(records("BenchmarkX", "allocs/op", vals...)))
		if r.Exceeded || r.Skipped || r.Ratio != 0 {
			t.Fatalf("%d flat records: %+v", n, r)
		}
	}
}

// TestTrendListsMissingFigureAsSkipped: a figure missing from a record in
// either window gets no drift and is listed as skipped; one missing only
// from an older record still gets its drift.
func TestTrendListsMissingFigureAsSkipped(t *testing.T) {
	recs := records("BenchmarkX", "ns/op", 100, 100, 100, 100, 100)
	for i, r := range recs {
		if i != 3 {
			r["BenchmarkY"] = []BenchLine{{Values: map[string]float64{"ns/op": 50}}}
		}
		if i != 0 {
			r["BenchmarkZ"] = []BenchLine{{Values: map[string]float64{"ns/op": 70}}}
		}
	}
	rep := Trend(recs)
	if rep.Window != 2 || len(rep.Rows) != 3 {
		t.Fatalf("window %d, %d rows; want 2 and 3", rep.Window, len(rep.Rows))
	}
	x, y, z := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if x.Skipped || z.Skipped || !y.Skipped || y.Exceeded {
		t.Fatalf("want only BenchmarkY skipped: %+v", rep.Rows)
	}
	out := RenderTrend(rep)
	for _, want := range []string{
		"BenchmarkY                       ns/op             50 →         50 →         50 →          - →         50  skipped",
		"BenchmarkZ                       ns/op              - →         70 →         70 →         70 →         70    +0.0%  ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
