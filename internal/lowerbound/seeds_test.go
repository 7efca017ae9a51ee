package lowerbound

import (
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/rat"
)

// TestShiftSeedRealizesBound: the Shift construction's exported seed —
// script plus surgery schedules — must replay to an execution whose skew
// reaches the certified implied bound, which is exactly what the search gets
// when it injects the seed.
func TestShiftSeedRealizesBound(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.Gradient(algorithms.DefaultGradientParams())
	shift, err := Shift(proto, rat.FromInt(2), p)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := shift.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Script) == 0 && len(shift.BetaCfg.Net.Neighbors(0)) > 0 {
		// A protocol that never sends would have an empty script; the
		// gradient protocol sends every period.
		t.Fatal("shift seed exported an empty script")
	}
	if len(seed.Schedules) != 2 {
		t.Fatalf("shift seed has %d schedules, want 2", len(seed.Schedules))
	}
	for i, s := range seed.Schedules {
		if err := s.ValidateDrift(p.Rho); err != nil {
			t.Fatalf("seed schedule %d violates drift: %v", i, err)
		}
	}
	// Replay the seed the way the search evaluates it: scripted delays over
	// a midpoint tail, the seed's schedules, tracked online.
	skew, err := core.NewSkewTracker(shift.BetaCfg.Net, seed.Schedules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(shift.BetaCfg.Net,
		engine.WithProtocol(proto),
		engine.WithAdversary(engine.ScriptedAdversary{Delays: seed.Script, Fallback: engine.Midpoint()}),
		engine.WithSchedules(seed.Schedules),
		engine.WithRho(p.Rho),
		engine.WithObservers(skew),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(shift.BetaCfg.Duration); err != nil {
		t.Fatal(err)
	}
	if got := skew.Global().Skew; got.Less(shift.SkewBeta.Abs()) {
		t.Fatalf("seed replay reaches %s, below the construction's %s", got, shift.SkewBeta.Abs())
	}
}

// TestMainTheoremSeedExports: the iterated construction's final execution
// exports a seed with the composed script and schedules.
func TestMainTheoremSeedExports(t *testing.T) {
	res, err := MainTheorem(MainTheoremInput{
		Protocol: algorithms.MaxGossip(rat.FromInt(1)),
		Params:   DefaultParams(),
		Branch:   2,
		Rounds:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := res.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Schedules) != res.D {
		t.Fatalf("theorem seed has %d schedules for %d nodes", len(seed.Schedules), res.D)
	}
	if len(seed.Script) == 0 {
		t.Fatal("theorem seed exported an empty script")
	}
	// The exported script is a copy: mutating an entry must not corrupt the
	// result's own config.
	sa := res.FinalCfg.Adversary.(engine.ScriptedAdversary)
	for k, v := range seed.Script {
		if v.IsZero() {
			continue
		}
		seed.Script[k] = rat.Rat{}
		if !sa.Delays[k].Equal(v) {
			t.Fatalf("mutating the exported script changed the construction's script at %v", k)
		}
		return
	}
	t.Fatal("no nonzero delay in the exported script to exercise the copy check")
}

// TestSeedFromUnscriptedConfig: a config whose adversary is not scripted
// has no seed to export and says so.
func TestSeedFromUnscriptedConfig(t *testing.T) {
	res := &MainTheoremResult{FinalCfg: engine.Config{Adversary: engine.Midpoint()}}
	if _, err := res.Seed(); err == nil || !strings.Contains(err.Error(), "not scripted") {
		t.Fatalf("unscripted seed export: %v", err)
	}
}
