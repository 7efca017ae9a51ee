package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcs/internal/dist"
)

const exampleSpec = "../../examples/campaign_e13_long.json"

// writeSnapshot writes a one-measurement perf snapshot pricing the cached
// search at 1000 ns/step.
func writeSnapshot(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := os.WriteFile(path, []byte(`[{"name":"SearchPrefixCached/E13","ns_per_step":1000}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanExample: `plan` prices the committed example campaign from the
// snapshot's one ns/step, in text and as JSON that decodes into dist.Plan.
func TestPlanExample(t *testing.T) {
	bench := writeSnapshot(t)
	var text bytes.Buffer
	if err := cmdPlan([]string{"-spec", exampleSpec, "-bench", bench, "-workers", "4"}, &text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	cells := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cell ") {
			cells++
		}
	}
	if cells != 2 {
		t.Fatalf("got %d cell lines, want 2:\n%s", cells, out)
	}
	for _, want := range []string{
		"total: ≤ 338 candidates, ~108836 engine steps\n",
		"cost model: 1000 ns/step (SearchPrefixCached/E13)\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan report lacks %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := cmdPlan([]string{"-spec", exampleSpec, "-bench", bench, "-json"}, &js); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"text": text.Bytes(), "json": js.Bytes()} {
		if bytes.Contains(b, []byte("lane")) {
			t.Fatalf("%s plan mentions a lane:\n%s", name, b)
		}
	}
	var plan dist.Plan
	if err := json.Unmarshal(js.Bytes(), &plan); err != nil {
		t.Fatalf("-json output does not decode into dist.Plan: %v", err)
	}
	if len(plan.Cells) != 2 || plan.MaxCandidates != 338 || plan.EstSteps != 108836 || plan.NsPerStep != 1000 {
		t.Fatalf("decoded plan = %+v", plan)
	}
}

// TestPlanErrors: a missing -spec and an unreadable spec file are errors,
// not panics.
func TestPlanErrors(t *testing.T) {
	bench := writeSnapshot(t)
	for name, args := range map[string][]string{
		"missing spec":    {"-bench", bench},
		"unreadable spec": {"-spec", filepath.Join(t.TempDir(), "missing.json"), "-bench", bench},
	} {
		var out bytes.Buffer
		if err := cmdPlan(args, &out); err == nil {
			t.Errorf("%s: want an error, got report:\n%s", name, out.String())
		}
	}
}

// TestRunExample: `run` executes the committed example campaign in process
// and reports each cell's searched worst case and step accounting.
func TestRunExample(t *testing.T) {
	var text bytes.Buffer
	if err := cmdRun([]string{"-spec", exampleSpec}, &text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{
		"cell 0 two-node d=16:\n  baseline 0, searched worst case 43/3 (candidate 65)\n",
		"  3 rounds, 100 candidates, 6032 engine steps (12785 re-simulated)\n",
		"cell 1 two-node d=64:\n  baseline 0, searched worst case 151/3 (candidate 65)\n",
		"  3 rounds, 100 candidates, 23938 engine steps (50602 re-simulated)\n",
		"campaign: 2 cell(s) in ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("run report lacks %q:\n%s", want, out)
		}
	}
}

// runCells runs the example campaign with -json and the given extra flags
// and returns each cell's JSON line as a field map.
func runCells(t *testing.T, extra ...string) []map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := cmdRun(append([]string{"-spec", exampleSpec, "-json"}, extra...), &out); err != nil {
		t.Fatal(err)
	}
	var cells []map[string]json.RawMessage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var line map[string]json.RawMessage
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-json output is not JSON lines: %v", err)
		}
		if _, ok := line["best_candidate"]; ok {
			cells = append(cells, line)
		}
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cell lines, want 2:\n%s", len(cells), out.String())
	}
	return cells
}

// TestRunRemoteMatchesInProcess: the same campaign sharded over a worker
// reports every cell field the in-process run does, byte for byte, except
// engine_steps, which counts the trunk replays the shard layout adds.
func TestRunRemoteMatchesInProcess(t *testing.T) {
	srv := httptest.NewServer((&dist.Worker{}).Handler())
	defer srv.Close()
	local := runCells(t)
	remote := runCells(t, "-workers", srv.URL, "-shards", "2")
	for i := range local {
		delete(local[i], "engine_steps")
		delete(remote[i], "engine_steps")
		if len(local[i]) != len(remote[i]) {
			t.Fatalf("cell %d: %d fields in process, %d remote", i, len(local[i]), len(remote[i]))
		}
		for field, want := range local[i] {
			if got := remote[i][field]; !bytes.Equal(got, want) {
				t.Errorf("cell %d field %q: remote %s, in process %s", i, field, got, want)
			}
		}
	}
}

// TestRunErrors: a missing -spec is an error, not a panic.
func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdRun(nil, &out); err == nil {
		t.Fatalf("want an error, got report:\n%s", out.String())
	}
}
