package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestConstructions(t *testing.T) {
	cases := []struct {
		name, construction, proto string
		d                         int64
		n                         int
		branch                    int64
		rounds                    int
	}{
		{"shift", "shift", "max-gossip", 4, 0, 0, 0},
		{"addskew", "addskew", "gradient", 0, 7, 0, 0},
		{"increase", "increase", "max-flood", 0, 7, 0, 0},
		{"theorem", "theorem", "max-gossip", 0, 0, 3, 2},
		{"counter", "counter", "max-gossip", 16, 0, 0, 0},
		{"null shift", "shift", "null", 2, 0, 0, 0},
		{"llw shift", "shift", "llw", 4, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.construction, tc.proto, tc.d, tc.n, tc.branch, tc.rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConstructionErrors(t *testing.T) {
	if err := run("shift", "nope", 4, 0, 0, 0); err == nil {
		t.Error("unknown protocol should error")
	}
	if err := run("nope", "null", 4, 0, 0, 0); err == nil {
		t.Error("unknown construction should error")
	}
	if err := run("theorem", "null", 0, 0, 1, 1); err == nil {
		t.Error("branch 1 should error")
	}
}

// TestOversizedNetworkRejected: constructions whose network is past the
// node cap fail with an error naming the cap instead of running out of
// memory. Branch 2 over 20 rounds passes MainTheorem's own 2²⁰ guard.
func TestOversizedNetworkRejected(t *testing.T) {
	for _, tc := range []struct {
		name, construction string
		n                  int
		branch             int64
		rounds             int
	}{
		{"addskew", "addskew", 100000, 0, 0},
		{"theorem", "theorem", 0, 2, 20},
	} {
		err := run(tc.construction, "max-gossip", 8, tc.n, tc.branch, tc.rounds)
		if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("%s: error %v, want the network node cap", tc.name, err)
		}
	}
}

// TestMain runs the command itself instead of the tests when GCSLOWER_MAIN is
// set, so a test can drive its flag parsing from a child process.
func TestMain(m *testing.M) {
	if os.Getenv("GCSLOWER_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsStrayArgument: flag parsing stops at the first argument that
// is not a flag, so `-construction shift stray -d 3` would certify the
// default d=8; the command refuses the stray word instead.
func TestRejectsStrayArgument(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-construction", "shift", "stray", "-d", "3")
	cmd.Env = append(os.Environ(), "GCSLOWER_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil || stdout.Len() != 0 || stderr.String() != "gcslower: unexpected argument \"stray\"\n" {
		t.Fatalf("exit %v, stdout %q, stderr %q; want a failure naming the stray argument", err, stdout.String(), stderr.String())
	}
}
