package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gcs/internal/dist"
	"gcs/internal/obs"
)

const exampleSpec = "../../examples/campaign_e13_long.json"

// TestPlanExample: `plan` bounds the committed example campaign with exact
// counts only, in text and as JSON that decodes into dist.Plan.
func TestPlanExample(t *testing.T) {
	var text bytes.Buffer
	if err := cmdPlan([]string{"-spec", exampleSpec}, &text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	want := "cell 0 two-node d=16        2 nodes, 4 generations, ≤ 169 candidates\n" +
		"cell 1 two-node d=64        2 nodes, 4 generations, ≤ 169 candidates\n" +
		"total: ≤ 338 candidates\n"
	if out != want {
		t.Fatalf("plan report:\n%s\nwant:\n%s", out, want)
	}

	var js bytes.Buffer
	if err := cmdPlan([]string{"-spec", exampleSpec, "-json"}, &js); err != nil {
		t.Fatal(err)
	}
	var plan dist.Plan
	dec := json.NewDecoder(&js)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&plan); err != nil {
		t.Fatalf("-json output does not decode into dist.Plan: %v", err)
	}
	if len(plan.Cells) != 2 || plan.MaxCandidates != 338 {
		t.Fatalf("decoded plan = %+v", plan)
	}
	for i, cp := range plan.Cells {
		if got := fmt.Sprint(cp.CandidatesPerGen); got != "[1 56 56 56]" || cp.MaxCandidates != 169 {
			t.Fatalf("cell %d: candidates per generation %s, max %d", i, got, cp.MaxCandidates)
		}
	}
}

// TestPlanErrors: a missing -spec and an unreadable spec file are errors,
// not panics.
func TestPlanErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"missing spec":    nil,
		"unreadable spec": {"-spec", filepath.Join(t.TempDir(), "missing.json")},
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
		"  3 rounds, 100 candidates, 6032 engine steps (12785 re-simulated)\n" +
			"  rate overrides: node 0 → 3/2, node 1 → 1/2\n",
		"cell 1 two-node d=64:\n  baseline 0, searched worst case 151/3 (candidate 65)\n",
		"  3 rounds, 100 candidates, 23938 engine steps (50602 re-simulated)\n",
		"campaign: 2 cell(s) in ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("run report lacks %q:\n%s", want, out)
		}
	}
}

// TestRunSummaryReconcilesMetrics: `run -json` ends with a summary whose
// metrics snapshot accounts for every cell: the search counters equal the
// sums of the cells' evaluated, engine_steps and candidate_steps, one
// generation is counted per progress line, and the engines' own step counter
// saw every dispatched event: the evaluations' and those of the replays that
// record beam entries.
func TestRunSummaryReconcilesMetrics(t *testing.T) {
	var out bytes.Buffer
	if err := cmdRun([]string{"-spec", exampleSpec, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum runSummary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("last -json line is not the run summary: %v\n%s", err, lines[len(lines)-1])
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("summary has %d cells, want 2", len(sum.Cells))
	}
	var evaluated, engineSteps, candidateSteps uint64
	for _, c := range sum.Cells {
		evaluated += uint64(c.Evaluated)
		engineSteps += c.EngineSteps
		candidateSteps += c.CandidateSteps
	}
	generations := uint64(strings.Count(out.String(), `"cell_name"`))
	record, ok := sum.Metrics.Get("gcs_search_record_steps_total")
	if !ok || record.Value <= 0 {
		t.Fatalf("gcs_search_record_steps_total = %v (present %v), want a positive count", record.Value, ok)
	}
	for name, want := range map[string]uint64{
		"gcs_search_candidates_total":      evaluated,
		"gcs_search_engine_steps_total":    engineSteps,
		"gcs_search_candidate_steps_total": candidateSteps,
		"gcs_search_generations_total":     generations,
		"gcs_engine_steps_total":           engineSteps + uint64(record.Value),
	} {
		if ms, ok := sum.Metrics.Get(name); !ok || ms.Value != float64(want) {
			t.Errorf("%s = %v (present %v), want %d", name, ms.Value, ok, want)
		}
	}
	if generations != 8 {
		t.Errorf("%d progress lines, want 8 (4 generations per cell)", generations)
	}
}

// TestRunErrors: a missing -spec is an error, not a panic.
func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdRun(nil, &out); err == nil {
		t.Fatalf("want an error, got report:\n%s", out.String())
	}
}

// TestServeMux: the mux `run -serve` publishes serves the registry on
// /v1/metrics and the hub's events on /v1/events, and /debug/pprof only with
// -debug.
func TestServeMux(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "a counter").Add(3)
	hub := obs.NewHub(4)
	srv := httptest.NewServer(serveMux(reg, hub, false))
	defer srv.Close()
	defer hub.Close() // ends the event stream before the server closes

	body, code := get(t, srv.URL+obs.PathMetrics)
	if code != http.StatusOK || !strings.Contains(body, "c_total 3") {
		t.Fatalf("%s: HTTP %d\n%s", obs.PathMetrics, code, body)
	}
	if _, code := get(t, srv.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof reachable without -debug: HTTP %d", code)
	}

	// The stream handler subscribes before it answers, so the event published
	// once the response arrives reaches this client.
	res, err := http.Get(srv.URL + obs.PathEvents)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	hub.Publish(obs.Event{Scope: "run", Name: "generation", Data: 1})
	line, err := bufio.NewReader(res.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev obs.Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Scope != "run" || ev.Name != "generation" {
		t.Fatalf("%s line %q: event %+v, error %v", obs.PathEvents, line, ev, err)
	}

	debug := httptest.NewServer(serveMux(reg, obs.NewHub(1), true))
	defer debug.Close()
	if _, code := get(t, debug.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index with -debug: HTTP %d, want 200", code)
	}
}

// get fetches url and returns its body and status code.
func get(t *testing.T, url string) (string, int) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), res.StatusCode
}

// TestSubcommandsRejectStrayArgument: flag parsing stops at the first
// argument that is not a flag, so each subcommand refuses a stray word
// instead of running with the flags after it dropped.
func TestSubcommandsRejectStrayArgument(t *testing.T) {
	for name, tc := range map[string]struct {
		cmd  func([]string) error
		args []string
	}{
		"plan": {func(args []string) error { return cmdPlan(args, io.Discard) }, []string{"-spec", exampleSpec, "stray"}},
		"run":  {func(args []string) error { return cmdRun(args, io.Discard) }, []string{"-spec", exampleSpec, "stray", "-json"}},
	} {
		if err := tc.cmd(tc.args); err == nil || err.Error() != `unexpected argument "stray"` {
			t.Errorf("%s %v: error %v, want one naming the stray argument", name, tc.args, err)
		}
	}
}

// TestMain runs the command itself instead of the tests when GCSSEARCH_MAIN
// is set, so a test can drive it, exit status included, from a child process.
func TestMain(m *testing.M) {
	if os.Getenv("GCSSEARCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDebugNeedsServe: -debug mounts pprof on the -serve mux, so without
// -serve it could not take effect; `run` refuses it, naming both flags,
// before it reads the spec or runs anything.
func TestDebugNeedsServe(t *testing.T) {
	cmd := exec.Command(os.Args[0], "run", "-spec", exampleSpec, "-debug")
	cmd.Env = append(os.Environ(), "GCSSEARCH_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 ||
		!strings.Contains(stderr.String(), "-debug") || !strings.Contains(stderr.String(), "-serve") {
		t.Fatalf("exit %v, stdout %q, stderr %q; want exit 1 and an error naming -debug and -serve", err, stdout.String(), stderr.String())
	}
}

// TestBindFailureAnnouncesNothing: an address that cannot be bound fails
// `run -serve` before it announces the address or runs anything: nothing on
// stderr, no report on stdout.
func TestBindFailureAnnouncesNothing(t *testing.T) {
	t.Run("run -serve", func(t *testing.T) {
		stderr, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		defer stderr.Close()
		saved := os.Stderr
		os.Stderr = stderr
		var out bytes.Buffer
		err = cmdRun([]string{"-spec", exampleSpec, "-serve", "127.0.0.1:-1"}, &out)
		os.Stderr = saved
		if err == nil || !strings.Contains(err.Error(), "127.0.0.1:-1") {
			t.Errorf("error %v, want one naming the address", err)
		}
		logged, rerr := os.ReadFile(stderr.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(logged) > 0 || out.Len() > 0 {
			t.Errorf("printed before failing:\nstderr: %s\nstdout: %s", logged, out.String())
		}
	})
}
