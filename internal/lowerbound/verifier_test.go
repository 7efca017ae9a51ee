package lowerbound

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestVerifierCatchesCorruptedScript re-simulates a correct Add Skew β with
// one scripted delay perturbed: the indistinguishability checker must reject
// the corrupted execution. This is the negative test for the verification
// machinery itself — a verifier that accepts everything would make every
// certificate in this package worthless.
func TestVerifierCatchesCorruptedScript(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 7
	dur := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild β's adversary with one delay nudged by 1/8 (still within
	// bounds so the simulation itself succeeds).
	scripted, ok := res.BetaCfg.Adversary.(engine.ScriptedAdversary)
	if !ok {
		t.Fatal("β adversary is not scripted")
	}
	corrupted := maps.Clone(scripted.Delays)
	var victim trace.MsgKey
	found := false
	// Pick the first delivered mid-run message, in send order.
	for _, rec := range alpha.Ledger {
		if alpha.Delivered(&rec) && rec.RecvReal.Greater(ri(2)) && rec.RecvReal.Less(res.TPrime) {
			victim, found = rec.Key, true
			break
		}
	}
	if !found {
		t.Fatal("no suitable victim message")
	}
	corrupted[victim] = corrupted[victim].Add(rf(1, 8))

	badCfg := res.BetaCfg
	badCfg.Adversary = engine.ScriptedAdversary{Delays: corrupted, Fallback: engine.Midpoint()}
	bad, err := engine.Run(badCfg)
	if err != nil {
		t.Fatalf("corrupted β should still simulate (delays remain legal): %v", err)
	}
	if err := trace.CheckIndistinguishable(alpha, bad); err == nil {
		t.Fatal("verifier accepted a corrupted β: the certificate machinery is broken")
	}
}

// TestScriptMissRejected re-simulates a correct Add Skew β with one scripted
// delay removed, keeping the Fallback that AddSkew set: the β script must
// cover every send, so the run fails naming the unscripted message instead
// of falling back to any delay.
func TestScriptMissRejected(t *testing.T) {
	p := DefaultParams()
	n := 7
	cfg, alpha := lineAlpha(t, algorithms.MaxGossip(ri(1)), n, p.Tau().Mul(ri(int64(n-1))), p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	scripted := res.BetaCfg.Adversary.(engine.ScriptedAdversary)
	missing := maps.Clone(scripted.Delays)
	// The first scripted message in send order: β is faithful up to it.
	var victim trace.MsgKey
	for _, rec := range alpha.Ledger {
		if _, ok := missing[rec.Key]; ok {
			victim = rec.Key
			break
		}
	}
	delete(missing, victim)

	badCfg := res.BetaCfg
	badCfg.Adversary = engine.ScriptedAdversary{Delays: missing, Fallback: scripted.Fallback}
	_, err = engine.Run(badCfg)
	want := fmt.Sprintf("no delay for message %d→%d seq %d and no Fallback tail", victim.From, victim.To, victim.Seq)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("β missing %v: error %v, want %q", victim, err, want)
	}
}

// TestVerifierCatchesWrongSchedule perturbs one node's rate surgery point:
// hardware readings shift and the checker must notice.
func TestVerifierCatchesWrongSchedule(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 5
	dur := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, dur, p)
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	res, err := AddSkew(AddSkewInput{
		Cfg: cfg, Alpha: alpha, Positions: positions,
		I: 0, J: n - 1, S: rat.Rat{}, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 speeds up 1/2 earlier than the construction demands.
	wrong, err := cfg.Schedules[2].WithRateFrom(res.Tk[2].Sub(rf(1, 2)), p.Gamma())
	if err != nil {
		t.Fatal(err)
	}
	badCfg := res.BetaCfg
	badCfg.Schedules = append([]*clock.Schedule{}, res.BetaCfg.Schedules...)
	badCfg.Schedules[2] = wrong
	bad, err := engine.Run(badCfg)
	if err != nil {
		// Acceptable: the corrupted schedule can break delay legality, which
		// is also a detection.
		return
	}
	if err := trace.CheckIndistinguishable(alpha, bad); err == nil {
		t.Fatal("verifier accepted a β with a perturbed rate schedule")
	}
}

// TestLedgerViolationsReportSmallestKey plants several violating messages in
// α's ledger: Add Skew's negative-remapped-delay check and Bounded
// Increase's delay precondition must name the smallest (From, To, Seq) key
// on every call, not the first one in the ledger's send order.
func TestLedgerViolationsReportSmallestKey(t *testing.T) {
	p := DefaultParams()
	proto := algorithms.MaxGossip(ri(1))
	n := 5
	T := p.Tau().Mul(ri(int64(n - 1)))
	cfg, alpha := lineAlpha(t, proto, n, T, p)
	mk := func(from, to int, seq uint64) trace.MsgKey { return trace.MsgKey{From: from, To: to, Seq: seq} }
	// Received at S = 0, within α's horizon, so α delivered them, but
	// outside the clean window (S, T], so the preconditions ignore them;
	// and before they were sent, so every remapped delay is negative.
	for _, key := range []trace.MsgKey{mk(2, 1, 1000), mk(2, 0, 1003), mk(1, 0, 1002), mk(1, 0, 1001), mk(3, 0, 1000)} {
		alpha.Ledger = append(alpha.Ledger, trace.MsgRecord{Key: key, SendReal: ri(1), RecvReal: rat.Rat{}})
		if !alpha.Delivered(&alpha.Ledger[len(alpha.Ledger)-1]) {
			t.Fatalf("planted message %v is not delivered by α's horizon %s", key, alpha.Duration)
		}
	}
	positions := make([]rat.Rat, n)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	in := AddSkewInput{Cfg: cfg, Alpha: alpha, Positions: positions, I: 0, J: n - 1, S: rat.Rat{}, Params: p}
	var first string
	for run := 0; run < 20; run++ {
		_, err := AddSkew(in)
		if err == nil || !strings.Contains(err.Error(), "remapped delay for {1 0 1001} is negative") {
			t.Fatalf("add-skew call %d: error %v, want the negative delay of {1 0 1001}", run, err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("add-skew call %d: error %q differs from %q", run, err, first)
		}
	}

	cfg, alpha = lineAlpha(t, proto, n, ri(20), p)
	for _, key := range []trace.MsgKey{mk(2, 3, 1000), mk(1, 2, 1001), mk(2, 1, 1000), mk(3, 2, 999)} {
		alpha.Ledger = append(alpha.Ledger, trace.MsgRecord{Key: key, SendReal: ri(5), RecvReal: ri(5)})
	}
	want := "lowerbound: bounded-increase precondition (delays): message {1 2 1001} delay 0 outside [d/4, 3d/4]"
	for run := 0; run < 20; run++ {
		_, err := BoundedIncrease(BoundedIncreaseInput{Cfg: cfg, Alpha: alpha, I: 2, Params: p})
		if err == nil || err.Error() != want {
			t.Fatalf("bounded-increase call %d: error %v, want %q", run, err, want)
		}
	}
}
