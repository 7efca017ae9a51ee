package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gcs/internal/dist"
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

// TestWorkerServesAndDrains: `worker` serves the example campaign on a
// loopback port with the outcome TestRunExample pins, and SIGINT drains it:
// cmdWorker returns nil and the port stops accepting connections.
func TestWorkerServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	done := make(chan error, 1)
	go func() { done <- cmdWorker([]string{"-listen", addr}) }()
	// cmdWorker installs its signal handler before it listens, so once the
	// ping answers, SIGINT drains the worker instead of killing the test.
	url := "http://" + addr
	for start := time.Now(); dist.Ping(nil, url) != nil; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("worker on %s exited before serving: %v", addr, err)
		default:
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("worker on %s never answered a ping", addr)
		}
	}

	// The checks below report with t.Error, so the worker is drained
	// whatever they find.
	var text bytes.Buffer
	if err := cmdRun([]string{"-spec", exampleSpec, "-workers", url}, &text); err != nil {
		t.Error(err)
	}
	out := text.String()
	for _, want := range []string{
		"cell 0 two-node d=16:\n  baseline 0, searched worst case 43/3 (candidate 65)\n",
		"cell 1 two-node d=64:\n  baseline 0, searched worst case 151/3 (candidate 65)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run report lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "  3 rounds, 100 candidates, "); n != 2 {
		t.Errorf("%d cells report 3 rounds and 100 candidates, want 2:\n%s", n, out)
	}
	if n := strings.Count(out, "(1 remote, 0 local)"); n != 8 {
		t.Errorf("%d of 8 generations ran on the worker:\n%s", n, out)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cmdWorker after SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cmdWorker did not return after SIGINT")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after the drain", addr)
	}
}

// TestSubcommandsRejectStrayArgument: flag parsing stops at the first
// argument that is not a flag, so each subcommand refuses a stray word
// instead of running with the flags after it dropped. The worker's -listen
// port is invalid, so a worker that let the word pass would fail on
// listening, not on the word.
func TestSubcommandsRejectStrayArgument(t *testing.T) {
	for name, tc := range map[string]struct {
		cmd  func([]string) error
		args []string
	}{
		"plan":   {func(args []string) error { return cmdPlan(args, io.Discard) }, []string{"-spec", exampleSpec, "stray"}},
		"worker": {cmdWorker, []string{"-listen", "127.0.0.1:-1", "stray"}},
		"run":    {func(args []string) error { return cmdRun(args, io.Discard) }, []string{"-spec", exampleSpec, "stray", "-json"}},
	} {
		if err := tc.cmd(tc.args); err == nil || err.Error() != `unexpected argument "stray"` {
			t.Errorf("%s %v: error %v, want one naming the stray argument", name, tc.args, err)
		}
	}
}
