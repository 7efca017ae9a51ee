package main

import (
	"bytes"
	"encoding/json"
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
