package gcs_test

// Config.SizeHint sizes Run's recorder from a run it replays, and does
// nothing else: the recorded execution never depends on it.

import (
	"runtime"
	"testing"

	"gcs"
	"gcs/internal/trace"
)

// hintConfig is a run on a 6-node ring with drifting clocks and hashed
// delays.
func hintConfig(t *testing.T, proto gcs.Protocol) gcs.Config {
	t.Helper()
	net, err := gcs.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := gcs.DiverseSchedules(net.N(), gcs.Frac(3, 4), gcs.Frac(5, 4), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	return gcs.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: gcs.HashAdversary{Seed: 7, Denom: 8},
		Protocol:  proto,
		Duration:  gcs.R(12),
		Rho:       gcs.Frac(1, 2),
	}
}

// TestRunSizeHintChangesNothing: a hint smaller than, equal to or larger
// than the run, or one with the wrong number of nodes, records exactly the
// execution of the unhinted run, for every protocol.
func TestRunSizeHintChangesNothing(t *testing.T) {
	for _, proto := range gcs.AllProtocols() {
		cfg := hintConfig(t, proto)
		want, err := gcs.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exact := want.Size()
		for _, hint := range []struct {
			name string
			size trace.Size
		}{
			{"smaller", scaled(exact, 1, 2)},
			{"equal", exact},
			{"larger", scaled(exact, 2, 1)},
			{"wrong node count", trace.Size{Actions: exact.Actions, Messages: exact.Messages, PerNode: exact.PerNode[1:]}},
		} {
			cfg.SizeHint = hint.size
			got, err := gcs.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			execEqual(t, proto.Name()+"/"+hint.name, want, got)
		}
	}
}

// scaled returns s with every count multiplied by num/den.
func scaled(s trace.Size, num, den int) trace.Size {
	out := trace.Size{Actions: s.Actions * num / den, Messages: s.Messages * num / den, PerNode: make([]int, len(s.PerNode))}
	for i, k := range s.PerNode {
		out.PerNode[i] = k * num / den
	}
	return out
}

// TestRunSizedReplayAllocatesLess: replaying a run with the recorder sized
// by the run's own Size allocates fewer times and fewer bytes than
// replaying it unsized, which grows the recorder's storage as it goes.
func TestRunSizedReplayAllocatesLess(t *testing.T) {
	cfg := hintConfig(t, gcs.MaxGossip(gcs.R(1)))
	exec, err := gcs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Size().Messages == 0 {
		t.Fatal("the run sends no message; the ledger's sizing is untested")
	}
	cost := func(hinted bool) (allocs float64, bytes uint64) {
		c := cfg
		if hinted {
			c.SizeHint = exec.Size()
		}
		replay := func() {
			if _, err := gcs.Run(c); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, replay)
		// One processor and a collection first keep the runtime's own
		// allocations out of the count.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			replay()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	plainAllocs, plainBytes := cost(false)
	sizedAllocs, sizedBytes := cost(true)
	if sizedAllocs >= plainAllocs || sizedBytes >= plainBytes {
		t.Errorf("sized replay: %v allocs / %d B; unsized: %v allocs / %d B", sizedAllocs, sizedBytes, plainAllocs, plainBytes)
	}
}
