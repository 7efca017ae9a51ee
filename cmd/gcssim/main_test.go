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
		stream   bool
	}{
		{"gradient line", "gradient", "line", 7, "midpoint", false},
		{"llw? no: max-gossip ring", "max-gossip", "ring", 6, "random", false},
		{"max-flood grid", "max-flood", "grid", 9, "zero", false},
		{"rbs star", "rbs", "star", 6, "random", false},
		{"null complete", "null", "complete", 4, "max", false},
		{"streamed gradient line", "gradient", "line", 7, "midpoint", true},
		{"streamed max-gossip ring", "max-gossip", "ring", 6, "random", true},
		{"streamed null complete", "null", "complete", 4, "max", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, "12", "1/2", tc.adv, 3, true, true, !tc.stream, tc.stream, false, "0"); err != nil {
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
		stream, chart                      bool
	}{
		{"bad proto", "nope", "line", "10", "1/2", "midpoint", 5, false, false},
		{"bad topology", "null", "torus", "10", "1/2", "midpoint", 5, false, false},
		{"bad duration", "null", "line", "x", "1/2", "midpoint", 5, false, false},
		{"zero duration", "null", "line", "0", "1/2", "midpoint", 5, false, false},
		{"bad rho", "null", "line", "10", "x", "midpoint", 5, false, false},
		{"bad adversary", "null", "line", "10", "1/2", "chaos", 5, false, false},
		{"rho too big", "null", "line", "10", "2", "midpoint", 5, false, false},
		{"bad proto streamed", "nope", "line", "10", "1/2", "midpoint", 5, true, false},
		{"bad adversary streamed", "null", "line", "10", "1/2", "chaos", 5, true, false},
		{"rho too big streamed", "null", "line", "10", "2", "midpoint", 5, true, false},
		{"stream+chart conflict", "null", "line", "10", "1/2", "midpoint", 5, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, tc.dur, tc.rho, tc.advName, 1, false, false, tc.chart, tc.stream, false, "0"); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestRunRejectsOversizedNetwork: a node count past the network cap is an
// error naming the cap, recorded or streamed, not an out-of-memory crash.
func TestRunRejectsOversizedNetwork(t *testing.T) {
	for _, stream := range []bool{false, true} {
		err := run("gradient", "line", 100000, "1", "1/2", "midpoint", 1, true, false, false, stream, false, "0")
		if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("stream=%v: error %v, want the network node cap", stream, err)
		}
	}
}

// TestStreamMatchesRecordedCLI: the two CLI paths must report identical
// metrics; this is asserted exactly in the library tests, here we just
// exercise both paths on the same configuration end to end.
func TestStreamMatchesRecordedCLI(t *testing.T) {
	for _, stream := range []bool{false, true} {
		if err := run("gradient", "line", 9, "20", "1/2", "random", 7, true, false, false, stream, false, "0"); err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
	}
}

// TestAdaptiveMode exercises the online-adversary path: recorded and
// streamed, auto and explicit thresholds, across topologies.
func TestAdaptiveMode(t *testing.T) {
	cases := []struct {
		name      string
		proto     string
		topology  string
		n         int
		threshold string
		stream    bool
	}{
		{"recorded max-gossip line", "max-gossip", "line", 5, "0", false},
		{"streamed gradient line", "gradient", "line", 5, "0", true},
		{"explicit threshold ring", "max-flood", "ring", 5, "1/2", false},
		{"two-node", "gradient", "line", 2, "0", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.proto, tc.topology, tc.n, "16", "1/2", "midpoint", 3,
				true, false, false, tc.stream, true, tc.threshold); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptiveModeErrors: a malformed threshold fails loudly, and -adaptive
// cannot be combined with -search.
func TestAdaptiveModeErrors(t *testing.T) {
	if err := run("gradient", "line", 5, "16", "1/2", "midpoint", 3,
		true, false, false, false, true, "x"); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if err := searchFlagConflicts(false, false, true); err == nil {
		t.Fatal("-search plus -adaptive accepted")
	}
}

// TestSearchMode exercises the worst-case hunter through the CLI path for
// every objective and with a non-default seed adversary.
func TestSearchMode(t *testing.T) {
	cases := []struct {
		name      string
		proto     string
		topology  string
		n         int
		adv       string
		objective string
	}{
		{"global gradient line", "gradient", "line", 4, "midpoint", "global"},
		{"local max-gossip ring", "max-gossip", "ring", 4, "random", "local"},
		{"margin null line", "null", "line", 3, "zero", "margin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := runSearch(tc.proto, tc.topology, tc.n, "6", "1/2", tc.adv, 3,
				tc.objective, 2, 1, 2, 2, "1/2", false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSearchModeErrors: search-mode flag validation fails loudly.
func TestSearchModeErrors(t *testing.T) {
	cases := []struct {
		name                                      string
		proto, topology, dur, rho, adv, objective string
		chart                                     bool
	}{
		{"bad objective", "null", "line", "6", "1/2", "midpoint", "chaos", false},
		{"bad duration", "null", "line", "x", "1/2", "midpoint", "global", false},
		{"zero duration", "null", "line", "0", "1/2", "midpoint", "global", false},
		{"bad rho", "null", "line", "6", "x", "midpoint", "global", false},
		{"bad proto", "nope", "line", "6", "1/2", "midpoint", "global", false},
		{"bad topology", "null", "torus", "6", "1/2", "midpoint", "global", false},
		{"bad adversary", "null", "line", "6", "1/2", "chaos", "global", false},
		{"chart conflict", "null", "line", "6", "1/2", "midpoint", "global", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := runSearch(tc.proto, tc.topology, 4, tc.dur, tc.rho, tc.adv, 1,
				tc.objective, 1, 1, 1, 0, "0", tc.chart); err == nil {
				t.Fatal("expected error")
			}
		})
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

// TestRejectsStrayArgument: flag parsing stops at the first argument that
// is not a flag, so `-search global -dur 4 -n 3` would search line-9 at
// the default duration; the command refuses the stray word instead.
func TestRejectsStrayArgument(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-search", "global", "-dur", "4", "-n", "3")
	cmd.Env = append(os.Environ(), "GCSSIM_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil || stdout.Len() != 0 || stderr.String() != "gcssim: unexpected argument \"global\"\n" {
		t.Fatalf("exit %v, stdout %q, stderr %q; want a failure naming the stray argument", err, stdout.String(), stderr.String())
	}
}
