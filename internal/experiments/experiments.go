// Package experiments regenerates every checkable result of Fan & Lynch
// (PODC 2004). The paper is a theory paper — its "evaluation" is its
// constructions — so each experiment either executes a construction and
// reports the certified quantities, or measures the behavior the paper
// describes qualitatively (gradient profiles, application-level effects).
//
// Experiment index (the README's "Experiment index" has the same table):
//
//	E1  §5 claim 1      Ω(d) shift bound, per algorithm and distance
//	E2  Lemma 6.1       Add Skew gain vs the guaranteed (x_J−x_I)/12
//	F1  Figure 1        the β rate schedule (rendered and asserted in E2)
//	E3  Lemma 7.1       Bounded Increase: max unit-window gain, implied f(1)
//	E4  Theorem 8.1     iterated construction: adjacent skew vs log D/log log D
//	E5  §2              Srikanth–Toueg counterexample: D+1 skew at distance 1
//	E6  §1/§4           empirical gradient profiles f̂(d) per algorithm
//	E7  §1 (TDMA)       guard-band feasibility vs diameter
//	E8  §1 (apps)       data fusion consistency and tracking velocity error
//	E9  ablations       gradient/counterexample parameter sensitivity
//	E10 topologies      skew metrics across topology families
//	E11 seeds           seed stability of the randomized sweeps
//	E12 streaming       online skew at line sizes beyond the recorded path
//	E13 search          worst-case adversary search vs baseline and Shift bound
//	E14 adaptive        online §2 scheduler (adaptive adversary) vs scripted search
package experiments

import (
	"fmt"
	"math"
	"strings"

	"gcs/internal/rat"
)

// Table is a rendered experiment result. The JSON tags are the stable
// machine-readable schema emitted by gcsbench -json.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes holds free-form commentary lines (paper-vs-measured verdicts).
	Notes []string `json:"notes,omitempty"`
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtRat renders a rational compactly: exact when short, decimal otherwise.
func fmtRat(r rat.Rat) string {
	s := r.String()
	if len(s) <= 10 {
		return s
	}
	return fmt.Sprintf("%.4f", r.Float64())
}

// fmtFloat renders a derived float column (ratios, percentages) with the
// given fmt verb, mapping the non-finite values to stable strings. Table
// cells are strings, so ±Inf/NaN can never corrupt the JSON the tables are
// marshaled into — but "+Inf" spellings vary across formatting paths, and a
// raw float64 leaking into a future schema would make json.Marshal fail
// outright. Every ratio column goes through here so a degenerate run (zero
// candidates, zero steps) renders as "inf"/"nan" and the table stays
// machine-readable.
func fmtFloat(format string, v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return fmt.Sprintf(format, v)
}

func fmtBool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
