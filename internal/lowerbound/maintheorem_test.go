package lowerbound

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestMainTheoremForkedEqualsFresh: rounds resumed from the previous round's
// checkpoint give exactly the construction whose every round starts a fresh
// engine — every round's figures, the final execution and the final
// configuration — while dispatching fewer events. Replaying FinalCfg from
// time 0 reproduces Final.
func TestMainTheoremForkedEqualsFresh(t *testing.T) {
	type cell struct {
		proto  engine.Protocol
		branch int64
		rounds int
	}
	var cells []cell
	for _, proto := range algorithms.All() {
		cells = append(cells, cell{proto: proto, branch: 4, rounds: 2})
	}
	cells = append(cells, cell{proto: algorithms.MaxGossip(ri(1)), branch: 2, rounds: 3})
	for _, c := range cells {
		name := fmt.Sprintf("%s/branch=%d/rounds=%d", c.proto.Name(), c.branch, c.rounds)
		t.Run(name, func(t *testing.T) {
			in := MainTheoremInput{Protocol: c.proto, Params: DefaultParams(), Branch: c.branch, Rounds: c.rounds}
			forked, err := MainTheorem(in)
			if err != nil {
				t.Fatal(err)
			}
			in.fromScratch = true
			fresh, err := MainTheorem(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(forked.Rounds) != len(fresh.Rounds) {
				t.Fatalf("%d rounds forked vs %d fresh", len(forked.Rounds), len(fresh.Rounds))
			}
			for k := range forked.Rounds {
				if f, g := fmt.Sprintf("%+v", forked.Rounds[k]), fmt.Sprintf("%+v", fresh.Rounds[k]); f != g {
					t.Fatalf("round %d:\nforked %s\nfresh  %s", k, f, g)
				}
			}
			sameExecution(t, "Final", forked.Final, fresh.Final)
			sameConfig(t, forked.FinalCfg, fresh.FinalCfg)
			if forked.Steps >= fresh.Steps {
				t.Errorf("forked rounds dispatched %d events, fresh ones %d: no round resumed a checkpoint", forked.Steps, fresh.Steps)
			}
			replay, err := engine.Run(forked.FinalCfg)
			if err != nil {
				t.Fatal(err)
			}
			sameExecution(t, "Run(FinalCfg)", replay, forked.Final)
		})
	}
}

// TestMainTheoremStepBudget pins the events the construction dispatches on
// max-gossip at branch 4, three rounds. Re-simulating every β and every
// extension from time 0 took 212,723.
func TestMainTheoremStepBudget(t *testing.T) {
	res, err := MainTheorem(MainTheoremInput{Protocol: algorithms.MaxGossip(ri(1)), Params: DefaultParams(), Branch: 4, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Steps > 70_000 {
		t.Fatalf("construction dispatched %d events, want at most 70,000", res.Steps)
	}
}

// TestMainTheoremByteBudget pins the bytes the construction allocates on
// max-gossip at branch 4, three rounds, where each recorder allocates its
// storage about once per branch and never copies its ledger to close a
// delivery. Growing every recorder as it recorded, and copying a resumed
// checkpoint's prefix on its first append, took 101.9 MB; copying each
// round's ledger after its β snapshot took 62.5 MB.
func TestMainTheoremByteBudget(t *testing.T) {
	in := MainTheoremInput{Protocol: algorithms.MaxGossip(ri(1)), Params: DefaultParams(), Branch: 4, Rounds: 3}
	// One processor and a collection first keep the runtime's own
	// allocations out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := MainTheorem(in); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 58_000_000 {
		t.Fatalf("construction allocated %d bytes, want at most 58 MB", b)
	}
}

// TestSnapshotsDeliverWhatTheyReceive: every β_k and α_{k+1} snapshot of
// the Main Theorem reads which messages it delivered off its horizon, and
// that agrees with its Recv actions: each Recv action matches a delivered
// ledger record with an equal receive time, and there are as many delivered
// records as Recv actions. The snapshots share storage with engines that
// keep running (the round's own, on to α_{k+1}, and the checkpoint the next
// round resumes), so they are checked once the whole construction is done,
// on forked and on fresh rounds. The gradient cell exchanges every 1/2 of
// hardware time, which with midpoint delays lands a receipt exactly on each
// snapshot's horizon, so a message received at the horizon itself is
// checked too; max-gossip's period-1 sends land on none.
func TestSnapshotsDeliverWhatTheyReceive(t *testing.T) {
	gradient := algorithms.DefaultGradientParams()
	gradient.Period = rat.MustFrac(1, 2)
	cells := []struct {
		proto     engine.Protocol
		rounds    int
		atHorizon bool // every snapshot receives a message at its horizon
	}{
		{algorithms.MaxGossip(ri(1)), 3, false},
		{algorithms.Gradient(gradient), 2, true},
	}
	for _, c := range cells {
		for _, fromScratch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rounds=%d/fromScratch=%v", c.proto.Name(), c.rounds, fromScratch), func(t *testing.T) {
				type snapshot struct {
					name string
					exec *trace.Execution
				}
				var snaps []snapshot
				in := MainTheoremInput{Protocol: c.proto, Params: DefaultParams(), Branch: 4, Rounds: c.rounds, fromScratch: fromScratch}
				in.observe = func(k int, _ trace.Size, beta, next *trace.Execution) {
					snaps = append(snaps, snapshot{fmt.Sprintf("β_%d", k), beta}, snapshot{fmt.Sprintf("α_%d", k+1), next})
				}
				if _, err := MainTheorem(in); err != nil {
					t.Fatal(err)
				}
				if len(snaps) != 2*c.rounds {
					t.Fatalf("%d snapshots, want %d", len(snaps), 2*c.rounds)
				}
				for _, s := range snaps {
					if atHorizon := deliversWhatItReceives(t, s.name, s.exec); c.atHorizon && !atHorizon {
						t.Fatalf("%s: no message received at the horizon %s; the boundary is untested", s.name, s.exec.Duration)
					}
				}
			})
		}
	}
}

// deliversWhatItReceives fails unless exec's delivered ledger records are
// exactly the messages its Recv actions receive, at the same times. It
// fails too if exec has no message in flight at its horizon, or no Recv
// action, which would leave one side of the check untested. It reports
// whether some message is received at the horizon itself.
func deliversWhatItReceives(t *testing.T, name string, exec *trace.Execution) (atHorizon bool) {
	t.Helper()
	index := make(map[trace.MsgKey]int, len(exec.Ledger))
	delivered := 0
	for i := range exec.Ledger {
		index[exec.Ledger[i].Key] = i
		if exec.Delivered(&exec.Ledger[i]) {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(exec.Ledger) {
		t.Fatalf("%s: %d of %d messages delivered by the horizon %s; the check needs both kinds", name, delivered, len(exec.Ledger), exec.Duration)
	}
	recvs := 0
	for _, a := range exec.Actions {
		if a.Kind != trace.KindRecv {
			continue
		}
		recvs++
		atHorizon = atHorizon || a.Real.Equal(exec.Duration)
		key := trace.MsgKey{From: a.Peer, To: a.Node, Seq: a.MsgSeq}
		i, ok := index[key]
		if !ok {
			t.Fatalf("%s: message %v received at %s has no ledger record", name, key, a.Real)
		}
		if rec := &exec.Ledger[i]; !exec.Delivered(rec) || !rec.RecvReal.Equal(a.Real) {
			t.Fatalf("%s: message %v received at %s, but its record (receive time %s) reads delivered %v by the horizon %s",
				name, key, a.Real, rec.RecvReal, exec.Delivered(rec), exec.Duration)
		}
	}
	if recvs != delivered {
		t.Fatalf("%s: %d Recv actions but %d delivered records by the horizon %s", name, recvs, delivered, exec.Duration)
	}
	return atHorizon
}

// TestRoundHintCoversRound: each round's size hint, scaled from α_k by the
// hardware time the round covers, is at least the Size of the α_{k+1} the
// round records, in total and on every node, so no round's recorder grows
// past what it reserved. Where the protocol sends, the hint's action and
// message totals are at most 9/8 of that Size, so an estimate that drifts
// towards reserving far too much fails too.
func TestRoundHintCoversRound(t *testing.T) {
	for _, proto := range algorithms.All() {
		for _, rounds := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/rounds=%d", proto.Name(), rounds), func(t *testing.T) {
				seen := 0
				in := MainTheoremInput{Protocol: proto, Params: DefaultParams(), Branch: 4, Rounds: rounds}
				in.observe = func(k int, hint trace.Size, _, next *trace.Execution) {
					seen++
					got := next.Size()
					if hint.Actions < got.Actions || hint.Messages < got.Messages {
						t.Errorf("round %d: hint %d actions, %d messages for a run of %d, %d", k, hint.Actions, hint.Messages, got.Actions, got.Messages)
					}
					for i, n := range got.PerNode {
						if hint.PerNode[i] < n {
							t.Errorf("round %d: node %d hinted %d actions, recorded %d", k, i, hint.PerNode[i], n)
						}
					}
					if got.Messages == 0 {
						return
					}
					if 8*hint.Actions > 9*got.Actions || 8*hint.Messages > 9*got.Messages {
						t.Errorf("round %d: hint %d actions, %d messages is over 9/8 of a run of %d, %d", k, hint.Actions, hint.Messages, got.Actions, got.Messages)
					}
				}
				if _, err := MainTheorem(in); err != nil {
					t.Fatal(err)
				}
				if seen != rounds {
					t.Fatalf("%d rounds reported their hint, want %d", seen, rounds)
				}
			})
		}
	}
}

// TestRoundCatchesEarlyInFlightDelivery: a round whose script delivers a
// message still in flight at the end of α by T' fails claim 6.2. The
// round's own run is β up to T', so this is the check that keeps α_{k+1}
// an extension of β_k.
func TestRoundCatchesEarlyInFlightDelivery(t *testing.T) {
	p := DefaultParams()
	n0 := int64(4)
	cfg, alpha := lineAlpha(t, algorithms.MaxGossip(ri(1)), int(n0)+1, p.Tau().Mul(ri(n0)), p)
	positions := make([]rat.Rat, n0+1)
	for k := range positions {
		positions[k] = ri(int64(k))
	}
	in := AddSkewInput{Cfg: cfg, Alpha: alpha, Positions: positions, I: 0, J: int(n0), S: rat.Rat{}, Params: p}
	plan, err := planAddSkew(in)
	if err != nil {
		t.Fatal(err)
	}
	dur := cfg.Duration.Add(p.Tau())
	round := func(t *testing.T, script func(map[trace.MsgKey]rat.Rat)) error {
		t.Helper()
		next, err := roundConfig(in, plan, dur)
		if err != nil {
			t.Fatal(err)
		}
		script(next.Adversary.(engine.ScriptedAdversary).Delays)
		var ch chain
		_, _, err = ch.round(0, in, plan, next, false)
		return err
	}
	if err := round(t, func(map[trace.MsgKey]rat.Rat) {}); err != nil {
		t.Fatalf("the unaltered round fails: %v", err)
	}

	// The last message in flight at ℓ(α) that β sends by T', delivered
	// the instant it is sent.
	var victim *trace.MsgRecord
	for i := range alpha.Ledger {
		if rec := &alpha.Ledger[i]; !alpha.Delivered(rec) && plan.sendsBy(rec) {
			victim = rec
		}
	}
	if victim == nil {
		t.Fatal("no message in flight at ℓ(α) that β sends by T'")
	}
	err = round(t, func(script map[trace.MsgKey]rat.Rat) { script[victim.Key] = rat.Rat{} })
	if err == nil || !strings.Contains(err.Error(), "claim 6.2") {
		t.Fatalf("in-flight message %v delivered by T': error %v, want claim 6.2", victim.Key, err)
	}
}

// TestResumeOnlyBeforeDivergence: a round resumes its checkpoint only when
// the checkpoint's last event precedes the round's divergence time, and
// otherwise starts a fresh engine. The constructions never diverge that
// early, so nothing else reaches the fresh branch.
func TestResumeOnlyBeforeDivergence(t *testing.T) {
	p := DefaultParams()
	cfg, _ := lineAlpha(t, algorithms.MaxGossip(ri(1)), 3, p.Tau().Mul(ri(2)), p)
	ckpt, err := newBranch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.stepBefore(ri(2)); err != nil {
		t.Fatal(err)
	}
	now, steps := ckpt.eng.Now(), ckpt.eng.Steps()
	for _, tc := range []struct {
		diverge rat.Rat
		resumed bool
	}{
		{now, false},
		{now.Add(rf(1, 8)), true},
	} {
		c := chain{ckpt: ckpt}
		b, base, err := c.resume(tc.diverge, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := b == ckpt; got != tc.resumed || (got && base != steps) || (!got && (base != 0 || b.eng.Steps() != 0)) {
			t.Errorf("divergence %s, checkpoint at %s: resumed %v from step %d, want resumed %v", tc.diverge, now, got, base, tc.resumed)
		}
	}
}

// sameExecution fails unless a and b hold the same actions, the same ledger
// and the same compiled logical clocks, compared on their printed values.
func sameExecution(t *testing.T, label string, a, b *trace.Execution) {
	t.Helper()
	lines := func(x *trace.Execution) []string {
		var out []string
		for _, act := range x.Actions {
			out = append(out, fmt.Sprintf("action %+v", act))
		}
		for _, m := range x.Ledger {
			out = append(out, fmt.Sprintf("message %+v", m))
		}
		for i, l := range x.Logical {
			out = append(out, fmt.Sprintf("node %d logical %v", i, l.Segs()))
		}
		return out
	}
	la, lb := lines(a), lines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("%s: %s\nvs\n%s", label, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("%s: %d actions, messages and clocks vs %d", label, len(la), len(lb))
	}
}

// sameConfig fails unless a and b hold the same delay script and the same
// hardware schedules.
func sameConfig(t *testing.T, a, b engine.Config) {
	t.Helper()
	sa, sb := a.Adversary.(engine.ScriptedAdversary), b.Adversary.(engine.ScriptedAdversary)
	if len(sa.Delays) != len(sb.Delays) {
		t.Fatalf("FinalCfg: %d scripted delays vs %d", len(sa.Delays), len(sb.Delays))
	}
	for key, x := range sa.Delays {
		if y, ok := sb.Delays[key]; !ok || !x.Equal(y) {
			t.Fatalf("FinalCfg: delay of %v is %s vs %s (scripted: %v)", key, x, y, ok)
		}
	}
	if len(a.Schedules) != len(b.Schedules) {
		t.Fatalf("FinalCfg: %d schedules vs %d", len(a.Schedules), len(b.Schedules))
	}
	for i := range a.Schedules {
		if x, y := fmt.Sprint(a.Schedules[i].RatesView()), fmt.Sprint(b.Schedules[i].RatesView()); x != y {
			t.Fatalf("FinalCfg: node %d schedule %s vs %s", i, x, y)
		}
	}
}

// BenchmarkMainTheoremChain runs the whole construction on max-gossip at
// branch 4, three rounds, and reports the engine events it dispatched.
func BenchmarkMainTheoremChain(b *testing.B) {
	in := MainTheoremInput{Protocol: algorithms.MaxGossip(ri(1)), Params: DefaultParams(), Branch: 4, Rounds: 3}
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		res, err := MainTheorem(in)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps/op")
}
