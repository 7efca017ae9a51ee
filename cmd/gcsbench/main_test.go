package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSingleExperiments exercises the fast experiments end to end through
// the CLI path. (E4 and the full suite are covered by the root benchmarks.)
func TestSingleExperiments(t *testing.T) {
	for _, id := range []string{"E1", "E3", "E5", "E13", "E14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := run(false, id, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "== "+id+":") {
				t.Fatalf("output missing %s table:\n%s", id, out)
			}
		})
	}
}

// TestUnknownExperimentErrors: a typo'd -only filter must fail loudly
// instead of silently running nothing and exiting 0.
func TestUnknownExperimentErrors(t *testing.T) {
	if _, err := run(false, "E99", false, false); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestStreamMode runs the E12 streaming sweep (small sizes keep it fast).
func TestStreamMode(t *testing.T) {
	out, err := run(false, "", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== E12:") {
		t.Fatalf("stream mode output missing E12 table:\n%s", out)
	}
	if strings.Contains(out, "== E1:") {
		t.Fatal("stream mode ran non-streaming experiments")
	}
}

// TestStreamOnlyConflict: -stream with a different -only is contradictory.
func TestStreamOnlyConflict(t *testing.T) {
	if _, err := run(false, "E3", true, false); err == nil {
		t.Fatal("conflicting -stream and -only should error")
	}
}

// TestJSONMode: -json emits the same tables as a machine-readable array
// with the stable {id, title, header, rows} schema and no text rendering.
func TestJSONMode(t *testing.T) {
	out, err := run(false, "E13", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "== E13:") {
		t.Fatal("-json output contains text-rendered tables")
	}
	var tables []struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(tables) != 1 || tables[0].ID != "E13" {
		t.Fatalf("expected exactly the E13 table, got %+v", tables)
	}
	if len(tables[0].Rows) == 0 || len(tables[0].Header) == 0 {
		t.Fatal("JSON table missing rows or header")
	}
	for _, row := range tables[0].Rows {
		if len(row) != len(tables[0].Header) {
			t.Fatalf("row width %d != header width %d", len(row), len(tables[0].Header))
		}
	}
}

// TestJSONModeMultiTable: an experiment emitting several tables (E9) keeps
// them as separate JSON objects.
func TestJSONModeMultiTable(t *testing.T) {
	out, err := run(false, "E9", false, true)
	if err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("E9 should emit 2 tables, got %d", len(tables))
	}
}

// assertAllCellsOK runs one experiment through the CLI path and demands
// that every table row ends in the "yes" ok column.
func assertAllCellsOK(t *testing.T, id string) {
	t.Helper()
	out, err := run(false, id, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "==") || strings.HasPrefix(line, "note:") ||
			strings.HasPrefix(line, "protocol") || strings.HasPrefix(line, "---") ||
			strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasSuffix(strings.TrimRight(line, " "), "yes") {
			t.Fatalf("%s cell not ok: %q", id, line)
		}
	}
}

// TestE13AllCellsOK: the acceptance bar for the search sweep — every
// protocol × topology cell reports ok (searched ≥ baseline, and ≥ the
// certified Shift bound on the two-node cells).
func TestE13AllCellsOK(t *testing.T) { assertAllCellsOK(t, "E13") }

// TestE14AllCellsOK: the acceptance bar for the adaptive sweep — every
// protocol × topology cell reports ok (the online scheduler at least
// matches the Midpoint baseline, and the certified Shift bound on the
// two-node smoke cell).
func TestE14AllCellsOK(t *testing.T) { assertAllCellsOK(t, "E14") }

// TestJSONModeE14: the adaptive table's derived columns survive the -json
// path as valid JSON (its ratio formatting shares fmtFloat with E13, which
// maps ±Inf/NaN to stable strings instead of invalid bare tokens).
func TestJSONModeE14(t *testing.T) {
	out, err := run(false, "E14", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(out)) {
		t.Fatalf("-json E14 output is not valid JSON:\n%s", out)
	}
	var tables []struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E14" || len(tables[0].Rows) == 0 {
		t.Fatalf("expected a populated E14 table, got %+v", tables)
	}
}

// TestMain runs the command itself instead of the tests when GCSBENCH_MAIN is
// set, so a test can drive its flag parsing from a child process.
func TestMain(m *testing.M) {
	if os.Getenv("GCSBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsStrayArgument: flag parsing stops at the first argument that
// is not a flag, so `-only E3 stray -json` would print E3 as text; the command refuses the stray word instead.
func TestRejectsStrayArgument(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-only", "E3", "stray", "-json")
	cmd.Env = append(os.Environ(), "GCSBENCH_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil || stdout.Len() != 0 || stderr.String() != "gcsbench: unexpected argument \"stray\"\n" {
		t.Fatalf("exit %v, stdout %q, stderr %q; want a failure naming the stray argument", err, stdout.String(), stderr.String())
	}
}
