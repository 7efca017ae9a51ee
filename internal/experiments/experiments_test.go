package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/rat"
)

// smallProtos keeps experiment tests fast: one jump-based and one
// rate-based algorithm.
func smallProtos() []engine.Protocol {
	return []engine.Protocol{
		algorithms.MaxGossip(rat.FromInt(1)),
		algorithms.Gradient(algorithms.DefaultGradientParams()),
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := tb.Render()
	for _, want := range []string{"== T: demo ==", "a", "bee", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE1(t *testing.T) {
	opt := DefaultE1(smallProtos())
	opt.Distances = []int64{1, 2}
	rows, table, err := E1Shift(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s d=%s: separation %s below guarantee %s", r.Protocol, r.D, r.Separation, r.Guaranteed)
		}
	}
	if !strings.Contains(table.Render(), "REPRODUCED") {
		t.Error("E1 table missing reproduction verdict")
	}
}

func TestE2(t *testing.T) {
	opt := DefaultE2(smallProtos())
	opt.Lines = []int{5, 9}
	rows, table, figure, err := E2AddSkew(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s n=%d: gain below guarantee", r.Protocol, r.N)
		}
	}
	if !strings.Contains(figure, "█") {
		t.Error("figure 1 not rendered")
	}
	_ = table.Render()
}

func TestE3(t *testing.T) {
	opt := DefaultE3(smallProtos())
	opt.N = 5
	opt.Duration = rat.FromInt(12)
	opt.Node = 2
	rows, table, err := E3BoundedIncrease(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ImpliedF1.Sign() <= 0 {
			t.Errorf("%s: implied f(1) = %s not positive", r.Protocol, r.ImpliedF1)
		}
	}
	_ = table.Render()
}

func TestE4(t *testing.T) {
	opt := DefaultE4(smallProtos()[:1])
	opt.Branch = 3
	opt.RoundsList = []int{1, 2}
	rows, table, err := E4MainTheorem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.AllTargets {
			t.Errorf("R=%d: not all round targets met", r.Rounds)
		}
		if r.AdjacentSkew.Less(r.PaperTarget) {
			t.Errorf("R=%d: adjacent skew %s < target %s", r.Rounds, r.AdjacentSkew, r.PaperTarget)
		}
	}
	_ = table.Render()
}

func TestE5(t *testing.T) {
	opt := DefaultE5(smallProtos())
	opt.Dcs = []int64{8}
	rows, table, err := E5Counterexample(opt)
	if err != nil {
		t.Fatal(err)
	}
	var maxPeak, gradPeak float64
	for _, r := range rows {
		switch r.Protocol {
		case "max-gossip":
			maxPeak = r.Peak.Float64()
		case "gradient":
			gradPeak = r.Peak.Float64()
		}
	}
	if maxPeak <= gradPeak {
		t.Errorf("max-gossip peak %.3f should exceed gradient peak %.3f", maxPeak, gradPeak)
	}
	if maxPeak < 2 { // Dc=8, drift 1/4 → expect ≈ 2+
		t.Errorf("max-gossip peak %.3f too small for Dc=8", maxPeak)
	}
	_ = table.Render()
}

func TestE6(t *testing.T) {
	opt := DefaultE6(smallProtos())
	opt.N = 9
	opt.Duration = rat.FromInt(32)
	opt.Distances = []int64{1, 4, 8}
	profiles, table, err := E6Profiles(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if len(p.Points) == 0 {
			t.Errorf("%s: empty profile", p.Protocol)
		}
		// f̂ is trivially monotone-bounded by global.
		for _, pt := range p.Points {
			if pt.MaxSkew.Greater(p.Global) {
				t.Errorf("%s: f̂(%s)=%s exceeds global %s", p.Protocol, pt.Dist, pt.MaxSkew, p.Global)
			}
		}
	}
	_ = table.Render()
}

func TestE7(t *testing.T) {
	opt := DefaultE7(smallProtos())
	opt.Diameters = []int{4, 8}
	opt.Duration = rat.FromInt(24)
	rows, table, err := E7TDMA(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	_ = table.Render()
}

func TestE8(t *testing.T) {
	opt := DefaultE8(smallProtos())
	opt.N = 9
	opt.Duration = rat.FromInt(40)
	opt.TrackDists = []int{1, 4}
	opt.CrossAt = rat.FromInt(20)
	rows, table, err := E8Applications(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SiblingSkew.Greater(r.GlobalSkew) {
			t.Errorf("%s: sibling skew exceeds global", r.Protocol)
		}
		if len(r.TrackErrPct) != 2 {
			t.Errorf("%s: tracking errors = %v", r.Protocol, r.TrackErrPct)
		}
	}
	_ = table.Render()
}

func TestE9(t *testing.T) {
	opt := DefaultE9()
	opt.N = 9
	opt.Duration = rat.FromInt(24)
	opt.Thresholds = opt.Thresholds[:2]
	opt.FastMults = opt.FastMults[:2]
	opt.JumpCaps = opt.JumpCaps[:2]
	gradRows, capRows, gt, ct, err := E9Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(gradRows) != 4 || len(capRows) != 2 {
		t.Fatalf("rows = %d, %d", len(gradRows), len(capRows))
	}
	// Larger caps permit at least as much adversarial local skew.
	if capRows[0].AdvPeak.Greater(capRows[1].AdvPeak) {
		t.Errorf("cap %s adversarial peak %s exceeds cap %s peak %s",
			capRows[0].Cap, capRows[0].AdvPeak, capRows[1].Cap, capRows[1].AdvPeak)
	}
	_ = gt.Render()
	_ = ct.Render()
}

func TestE10(t *testing.T) {
	opt := DefaultE10(smallProtos())
	opt.Duration = rat.FromInt(24)
	rows, table, err := E10Topologies(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 protocols × 4 topologies
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Local.Greater(r.Global) {
			t.Errorf("%s on %s: local %s > global %s", r.Protocol, r.Topology, r.Local, r.Global)
		}
	}
	_ = table.Render()
}

func TestE11(t *testing.T) {
	opt := DefaultE11(smallProtos())
	opt.N = 9
	opt.Duration = rat.FromInt(24)
	opt.Seeds = []uint64{1, 2, 3}
	rows, table, err := E11Seeds(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LocalMedian > r.LocalMax || r.GlobalMed > r.GlobalMax {
			t.Errorf("%s: median exceeds max", r.Protocol)
		}
		if r.LocalMax > r.GlobalMax {
			t.Errorf("%s: local max exceeds global max", r.Protocol)
		}
	}
	_ = table.Render()
}

func TestMedianMax(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %f", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %f", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %f", m)
	}
	if m := maxOf([]float64{1, 5, 2}); m != 5 {
		t.Errorf("maxOf = %f", m)
	}
}

func TestE12(t *testing.T) {
	opt := DefaultE12(smallProtos())
	opt.Sizes = []int{17, 33}
	opt.Duration = rat.FromInt(16)
	rows, table, err := E12StreamScale(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Events == 0 || r.Messages == 0 {
			t.Errorf("%s n=%d: empty run (events=%d messages=%d)", r.Protocol, r.N, r.Events, r.Messages)
		}
		if !r.Valid {
			t.Errorf("%s n=%d: validity violated", r.Protocol, r.N)
		}
		if r.Local.Greater(r.Global) {
			t.Errorf("%s n=%d: local skew %s exceeds global %s", r.Protocol, r.N, r.Local, r.Global)
		}
	}
	if !strings.Contains(table.Render(), "E12") {
		t.Error("table missing E12 id")
	}
}

// TestTableNonFiniteJSON: a ratio column hitting ±Inf/NaN must survive the
// gcsbench -json path — fmtFloat renders the non-finite values as stable
// strings, json.Marshal succeeds, and the output round-trips.
func TestTableNonFiniteJSON(t *testing.T) {
	zero := 0.0
	tb := &Table{
		ID:     "T",
		Title:  "degenerate ratios",
		Header: []string{"steps/cand", "resim/cand", "saved"},
		Rows: [][]string{{
			fmtFloat("%.1f", 1/zero),      // +Inf: zero candidates evaluated
			fmtFloat("%.1f", -1/zero),     // -Inf
			fmtFloat("%.0f%%", zero/zero), // NaN: zero-step run
		}},
	}
	data, err := json.Marshal([]*Table{tb})
	if err != nil {
		t.Fatalf("non-finite cells broke json.Marshal: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("marshaled table is not valid JSON: %s", data)
	}
	var back []Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got := back[0].Rows[0]; got[0] != "inf" || got[1] != "-inf" || got[2] != "nan" {
		t.Fatalf("non-finite cells rendered as %v, want inf/-inf/nan", got)
	}
	// Finite values keep their ordinary formatting.
	if got := fmtFloat("%.1f", 2.5); got != "2.5" {
		t.Fatalf("fmtFloat(2.5) = %q", got)
	}
}

func TestE14(t *testing.T) {
	opt, err := DefaultE14(smallProtos())
	if err != nil {
		t.Fatal(err)
	}
	rows, table, err := E14AdaptiveAdversary(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(smallProtos())*len(opt.Cells) {
		t.Fatalf("rows = %d, want %d", len(rows), len(smallProtos())*len(opt.Cells))
	}
	twoNode := 0
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s on %s: adaptive %s below its floor (baseline %s, shift %s)",
				r.Protocol, r.Cell, r.Adaptive, r.Baseline, r.ShiftBound)
		}
		// On two-node cells (the production floor's own condition) the
		// online scheduler must attain the certified bound the scripted
		// search already recovers.
		if strings.HasPrefix(r.Cell, "two-node") {
			twoNode++
			if r.Adaptive.Less(r.ShiftBound) {
				t.Errorf("%s on %s: adaptive %s below certified Shift bound %s",
					r.Protocol, r.Cell, r.Adaptive, r.ShiftBound)
			}
		}
	}
	if twoNode == 0 {
		t.Error("smoke configuration has no two-node cell")
	}
	if !strings.Contains(table.Render(), "E14") {
		t.Error("table missing E14 id")
	}
}

// TestE14LongCells: -long adds a larger two-node cell and a line.
func TestE14LongCells(t *testing.T) {
	opt, err := DefaultE14(smallProtos())
	if err != nil {
		t.Fatal(err)
	}
	long, err := LongE14Cells(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(long.Cells) != len(opt.Cells)+2 {
		t.Fatalf("long cells = %d, want %d", len(long.Cells), len(opt.Cells)+2)
	}
	var bigTwo, line bool
	for _, c := range long.Cells {
		if c.Net.N() == 2 && c.Net.Diameter().Equal(rat.FromInt(8)) {
			bigTwo = true
		}
		if c.Net.N() == 5 {
			line = true
		}
	}
	if !bigTwo || !line {
		t.Fatalf("long cells missing the d=8 two-node or the line: %+v", long.Cells)
	}
}

func TestE13(t *testing.T) {
	opt, err := DefaultE13(smallProtos())
	if err != nil {
		t.Fatal(err)
	}
	rows, table, err := E13SearchWorstCase(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(smallProtos())*len(opt.Cells) {
		t.Fatalf("rows = %d, want %d", len(rows), len(smallProtos())*len(opt.Cells))
	}
	seeded := 0
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s on %s: searched %s below its floor (baseline %s, shift %s)",
				r.Protocol, r.Cell, r.Searched, r.Baseline, r.ShiftBound)
		}
		if r.Searched.Less(r.Baseline) {
			t.Errorf("%s on %s: searched %s < midpoint baseline %s",
				r.Protocol, r.Cell, r.Searched, r.Baseline)
		}
		if r.Evaluated == 0 {
			t.Errorf("%s on %s: no candidates evaluated", r.Protocol, r.Cell)
		}
		if r.Seeded {
			seeded++
			// A seeded two-node cell carries the certified construction in
			// its beam: reaching the Shift bound is structural, not luck.
			if r.Searched.Less(r.ShiftBound) {
				t.Errorf("%s on %s: seeded search %s below certified bound %s",
					r.Protocol, r.Cell, r.Searched, r.ShiftBound)
			}
		}
		if r.StepsPerCand > r.ResimPerCand {
			t.Errorf("%s on %s: prefix-cached %.1f steps/cand exceeds resim %.1f",
				r.Protocol, r.Cell, r.StepsPerCand, r.ResimPerCand)
		}
	}
	if seeded == 0 {
		t.Error("no cell was seeded with a certified construction")
	}
	if !strings.Contains(table.Render(), "E13") {
		t.Error("table missing E13 id")
	}
}

// TestE13LongCells: the -long configuration reaches diameter 64, seeds the
// scale cells, and enables windowed mutations on the small cells.
func TestE13LongCells(t *testing.T) {
	opt, err := DefaultE13(smallProtos())
	if err != nil {
		t.Fatal(err)
	}
	long, err := LongE13Cells(opt)
	if err != nil {
		t.Fatal(err)
	}
	if long.Rounds != opt.Rounds+1 {
		t.Errorf("long rounds = %d, want %d", long.Rounds, opt.Rounds+1)
	}
	var d64, windowed, theorem bool
	for _, c := range long.Cells {
		if c.Net.Diameter().Equal(rat.FromInt(64)) && c.Seed == E13SeedShift && !c.MutateTail.IsZero() {
			d64 = true
		}
		if c.RateWindows > 0 {
			windowed = true
		}
		if c.Seed == E13SeedTheorem {
			theorem = true
		}
	}
	if !d64 {
		t.Error("no seeded, tail-biased diameter-64 cell in -long mode")
	}
	if !windowed {
		t.Error("no cell enables windowed rate mutations in -long mode")
	}
	if !theorem {
		t.Error("no MainTheorem-seeded cell in -long mode")
	}
}
