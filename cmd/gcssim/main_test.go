package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestRunHappyPaths(t *testing.T) {
	cases := []struct {
		name     string
		proto    string
		topology string
		n        int
		adv      string
		chart    bool
	}{
		{"gradient line", "gradient", "line", 7, "midpoint", true},
		{"llw? no: max-gossip ring", "max-gossip", "ring", 6, "random", true},
		{"max-flood grid", "max-flood", "grid", 9, "zero", true},
		{"rbs star", "rbs", "star", 6, "random", true},
		{"null complete", "null", "complete", 4, "max", true},
		// Without -chart nothing records the run: only the trackers see it.
		{"streamed gradient line", "gradient", "line", 7, "midpoint", false},
		{"streamed max-gossip ring", "max-gossip", "ring", 6, "random", false},
		{"streamed null complete", "null", "complete", 4, "max", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, "12", "1/2", tc.adv, 3, true, true, tc.chart, false, "0"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name                               string
		proto, topology, dur, rho, advName string
		n                                  int
		chart                              bool
	}{
		{"bad proto", "nope", "line", "10", "1/2", "midpoint", 5, true},
		{"bad topology", "null", "torus", "10", "1/2", "midpoint", 5, false},
		{"bad duration", "null", "line", "x", "1/2", "midpoint", 5, false},
		{"zero duration", "null", "line", "0", "1/2", "midpoint", 5, false},
		{"bad rho", "null", "line", "10", "x", "midpoint", 5, false},
		{"bad adversary", "null", "line", "10", "1/2", "chaos", 5, true},
		{"rho too big", "null", "line", "10", "2", "midpoint", 5, true},
		// The same refusals without -chart, where no recorder is attached.
		{"bad proto streamed", "nope", "line", "10", "1/2", "midpoint", 5, false},
		{"bad adversary streamed", "null", "line", "10", "1/2", "chaos", 5, false},
		{"rho too big streamed", "null", "line", "10", "2", "midpoint", 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, tc.dur, tc.rho, tc.advName, 1, false, false, tc.chart, false, "0"); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestRunRejectsOversizedNetwork: a node count past the network cap is an
// error naming the cap, with or without -chart, not an out-of-memory crash.
func TestRunRejectsOversizedNetwork(t *testing.T) {
	for _, chart := range []bool{false, true} {
		err := run("gradient", "line", 100000, "1", "1/2", "midpoint", 1, true, false, chart, false, "0")
		if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("chart=%v: error %v, want the network node cap", chart, err)
		}
	}
}

// TestAdaptiveMode exercises the online-adversary path: with and without
// the recorder -chart attaches, auto and explicit thresholds, across
// topologies.
func TestAdaptiveMode(t *testing.T) {
	cases := []struct {
		name      string
		proto     string
		topology  string
		n         int
		threshold string
		chart     bool
	}{
		{"recorded max-gossip line", "max-gossip", "line", 5, "0", true},
		{"streamed gradient line", "gradient", "line", 5, "0", false},
		{"explicit threshold ring", "max-flood", "ring", 5, "1/2", true},
		{"two-node", "gradient", "line", 2, "0", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, "16", "1/2", "midpoint", 3,
				true, false, tc.chart, true, tc.threshold); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptiveModeErrors: a malformed threshold fails loudly.
func TestAdaptiveModeErrors(t *testing.T) {
	if err := run("gradient", "line", 5, "16", "1/2", "midpoint", 3,
		true, false, false, true, "x"); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

// TestMain runs the command itself instead of the tests when GCSSIM_MAIN is
// set, so a test can drive its flag parsing from a child process.
func TestMain(m *testing.M) {
	if os.Getenv("GCSSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gcssim runs the command in a child process with args and returns its
// stdout and stderr; the test fails unless the exit status is want.
func gcssim(t *testing.T, want int, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GCSSIM_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("gcssim %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, want, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestRejectsStrayArgument: flag parsing stops at the first argument that
// is not a flag, so `-profile global -dur 4 -n 3` would run line-9 at the
// default duration; the command refuses the stray word instead.
func TestRejectsStrayArgument(t *testing.T) {
	stdout, stderr := gcssim(t, 1, "-profile", "global", "-dur", "4", "-n", "3")
	if stdout != "" || stderr != "gcssim: unexpected argument \"global\"\n" {
		t.Fatalf("stdout %q, stderr %q; want a failure naming the stray argument", stdout, stderr)
	}
}

// TestRejectsFlagConflicts: a flag the run would ignore is refused, not
// dropped: -adversary beside -adaptive, which schedules with the online
// adversary, and -threshold without -adaptive, whose value only the adaptive
// scheduler reads (so -threshold xyz would otherwise run and exit 0).
func TestRejectsFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-adaptive", "-adversary", "max", "-n", "3", "-dur", "4"}, "gcssim: -adaptive schedules with the online adversary; drop -adversary\n"},
		{[]string{"-threshold", "xyz", "-n", "3", "-dur", "4"}, "gcssim: -threshold sets the adaptive scheduler's release; add -adaptive or drop -threshold\n"},
		{[]string{"-threshold", "1/2", "-n", "3", "-dur", "4"}, "gcssim: -threshold sets the adaptive scheduler's release; add -adaptive or drop -threshold\n"},
	} {
		stdout, stderr := gcssim(t, 1, tc.args...)
		if stdout != "" || stderr != tc.want {
			t.Errorf("gcssim %v: stdout %q, stderr %q; want only %q", tc.args, stdout, stderr, tc.want)
		}
	}
	// Each flag is accepted on its own side of -adaptive.
	gcssim(t, 0, "-adaptive", "-threshold", "1/2", "-n", "3", "-dur", "4")
	gcssim(t, 0, "-adversary", "max", "-n", "3", "-dur", "4")
}

// TestChartOnlyAppends: -chart attaches a recorder for the chart and
// changes nothing else. The report with -chart is the report without it,
// byte for byte, followed by the chart; the trackers read the same run
// either way.
func TestChartOnlyAppends(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "gradient", "-topology", "line", "-n", "9", "-dur", "20", "-adversary", "random", "-seed", "7", "-profile"},
		{"-adaptive", "-proto", "max-gossip", "-topology", "ring", "-n", "6", "-dur", "16"},
	} {
		plain, _ := gcssim(t, 0, args...)
		charted, _ := gcssim(t, 0, append(args, "-chart")...)
		chart, ok := strings.CutPrefix(charted, plain)
		if !ok || !strings.HasPrefix(chart, "\nskew over time: worst pair (") {
			t.Fatalf("gcssim %v: the -chart report is not the plain one plus a chart\nplain:\n%s\nwith -chart:\n%s", args, plain, charted)
		}
	}
}
