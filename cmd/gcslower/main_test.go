package main

import (
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
