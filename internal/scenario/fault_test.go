package scenario

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/search"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

func TestFaultModelValidate(t *testing.T) {
	cases := []struct {
		name  string
		model FaultModel
		ok    bool
	}{
		{"zero", FaultModel{}, true},
		{"crash", FaultModel{Crash: map[int][]Window{1: {{From: ri(1), To: ri(2)}}}}, true},
		{"empty-crash-window", FaultModel{Crash: map[int][]Window{1: {{From: ri(2), To: ri(2)}}}}, false},
		{"negative-crash-window", FaultModel{Crash: map[int][]Window{1: {{From: ri(-1), To: ri(2)}}}}, false},
		{"loss", FaultModel{LossNum: 1, LossDen: 8}, true},
		{"loss-no-den", FaultModel{LossNum: 1}, false},
		{"loss-certain", FaultModel{LossNum: 8, LossDen: 8}, false},
		{"loss-negative", FaultModel{LossNum: -1, LossDen: 8}, false},
		{"partition", FaultModel{Partitions: []Partition{{Window: Window{From: ri(1), To: ri(3)}}}}, true},
		{"partition-empty-window", FaultModel{Partitions: []Partition{{Window: Window{From: ri(3), To: ri(1)}}}}, false},
		{"churn", FaultModel{ChurnNum: 1, ChurnDen: 8, ChurnPeriod: ri(2)}, true},
		{"churn-no-period", FaultModel{ChurnNum: 1, ChurnDen: 8}, false},
		{"churn-certain", FaultModel{ChurnNum: 8, ChurnDen: 8, ChurnPeriod: ri(2)}, false},
	}
	for _, c := range cases {
		if err := c.model.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if !(FaultModel{}).IsZero() {
		t.Error("zero model is not IsZero")
	}
	if (FaultModel{LossNum: 1, LossDen: 8}).IsZero() {
		t.Error("loss model claims IsZero")
	}
}

func TestFaultModelDropSemantics(t *testing.T) {
	crash := FaultModel{Crash: map[int][]Window{2: {{From: ri(3), To: ri(6)}}}}
	// A crash window silences the node in both directions, half-open.
	for _, c := range []struct {
		from, to int
		at       rat.Rat
		want     bool
	}{
		{2, 0, ri(3), true},  // sender crashed, window start inclusive
		{0, 2, ri(5), true},  // receiver crashed
		{2, 0, ri(6), false}, // window end exclusive: the restart
		{0, 1, ri(4), false}, // neither endpoint crashed
	} {
		if got := crash.Drop(c.from, c.to, 1, c.at); got != c.want {
			t.Errorf("crash.Drop(%d, %d, at %s) = %v, want %v", c.from, c.to, c.at, got, c.want)
		}
	}

	part := FaultModel{Partitions: []Partition{{
		Window: Window{From: ri(4), To: ri(8)},
		Side:   []bool{true, true},
	}}}
	// Only messages straddling the cut during the window are dropped; Side
	// treats out-of-range nodes as the false side.
	for _, c := range []struct {
		from, to int
		at       rat.Rat
		want     bool
	}{
		{1, 2, ri(5), true},  // crosses the cut
		{0, 1, ri(5), false}, // both inside Side
		{2, 3, ri(5), false}, // both outside Side
		{1, 2, ri(2), false}, // before the window
		{1, 2, ri(8), false}, // window end exclusive
	} {
		if got := part.Drop(c.from, c.to, 1, c.at); got != c.want {
			t.Errorf("partition.Drop(%d, %d, at %s) = %v, want %v", c.from, c.to, c.at, got, c.want)
		}
	}

	// Churn is symmetric: edge {i, j} is down in both directions within a
	// period, and every decision is pure — recomputing never flips it.
	churn := FaultModel{ChurnNum: 1, ChurnDen: 2, ChurnPeriod: ri(2), ChurnSeed: 5}
	sawDown, sawUp := false, false
	for k := int64(0); k < 8; k++ {
		at := ri(2 * k)
		fwd := churn.Drop(0, 1, uint64(k), at)
		if back := churn.Drop(1, 0, uint64(k)+100, at); back != fwd {
			t.Errorf("churn asymmetric in period %d: 0→1 %v, 1→0 %v", k, fwd, back)
		}
		if again := churn.Drop(0, 1, uint64(k), at); again != fwd {
			t.Errorf("churn.Drop not pure in period %d", k)
		}
		if fwd {
			sawDown = true
		} else {
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Errorf("churn at 1/2 over 8 periods never varied (down=%v up=%v); seed degenerate", sawDown, sawUp)
	}

	// Loss is per-message: with p = 1/2 some sequence numbers on the same
	// pair drop and others pass, deterministically.
	loss := FaultModel{LossNum: 1, LossDen: 2, LossSeed: 99}
	sawDrop, sawPass := false, false
	for seq := uint64(0); seq < 16; seq++ {
		d := loss.Drop(0, 1, seq, ri(1))
		if again := loss.Drop(0, 1, seq, ri(1)); again != d {
			t.Fatalf("loss.Drop not pure at seq %d", seq)
		}
		if d {
			sawDrop = true
		} else {
			sawPass = true
		}
	}
	if !sawDrop || !sawPass {
		t.Errorf("loss at 1/2 over 16 messages never varied (drop=%v pass=%v); seed degenerate", sawDrop, sawPass)
	}
}

func TestFaultModelCrashTotal(t *testing.T) {
	m := FaultModel{
		Crash: map[int][]Window{
			1: {{From: ri(1), To: ri(3)}},                           // 2
			4: {{From: ri(2), To: ri(4)}, {From: ri(6), To: ri(7)}}, // 3
		},
		Partitions: []Partition{{Window: Window{From: ri(5), To: ri(9)}}}, // 4
	}
	if got := m.CrashTotal(); !got.Equal(ri(9)) {
		t.Errorf("CrashTotal = %s, want 9", got)
	}
	if got := (FaultModel{}).CrashTotal(); !got.IsZero() {
		t.Errorf("zero model CrashTotal = %s, want 0", got)
	}
}

// TestFaultAdversaryDropsAtEngine: a partition covering the whole run on a
// two-node network drops every message at the engine level — send actions
// and Dropped ledger records still appear (the sender cannot tell), nothing
// is ever delivered, the Dropped counter counts every loss, and the run
// still drains to its horizon.
func TestFaultAdversaryDropsAtEngine(t *testing.T) {
	net, err := network.TwoNode(ri(1))
	if err != nil {
		t.Fatal(err)
	}
	model := FaultModel{Partitions: []Partition{{
		Window: Window{From: ri(0), To: ri(100)},
		Side:   []bool{true},
	}}}
	met := engine.NewMetrics(obs.NewRegistry())
	rec := trace.NewRecorder(net.N())
	var sends, drops, delivers int
	counter := engine.Funcs{
		Send: func(r trace.MsgRecord) {
			sends++
			if r.Dropped {
				drops++
			}
		},
		Deliver: func(trace.MsgRecord) { delivers++ },
	}
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.MaxGossip(ri(1))),
		engine.WithAdversary(FaultAdversary{Model: model, Inner: engine.Midpoint()}),
		engine.WithRho(rf(1, 2)),
		engine.WithMetrics(met),
		engine.WithObservers(rec, counter),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(10)); err != nil {
		t.Fatal(err)
	}
	if sends == 0 {
		t.Fatal("no messages sent; the test is vacuous")
	}
	if drops != sends || delivers != 0 {
		t.Fatalf("sends=%d drops=%d delivers=%d; want every send dropped, none delivered", sends, drops, delivers)
	}
	if got := met.Dropped.Value(); got != uint64(drops) {
		t.Fatalf("Dropped counter %d, want %d", got, drops)
	}
}

// TestDecisionLogSkipsDropped: the search's decision log records only
// messages the adversary actually delayed — a dropped message never reaches
// the inner adversary, so replaying or mutating its (nonexistent) decision
// is meaningless and must not be offered to the search.
func TestDecisionLogSkipsDropped(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	model := FaultModel{LossNum: 1, LossDen: 2, LossSeed: 99}
	log := search.NewDecisionLog()
	rec := trace.NewRecorder(net.N())
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.MaxGossip(ri(1))),
		engine.WithAdversary(FaultAdversary{Model: model, Inner: engine.Midpoint()}),
		engine.WithRho(rf(1, 2)),
		engine.WithObservers(log, rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(10)); err != nil {
		t.Fatal(err)
	}
	exec, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	dropped := make(map[trace.MsgKey]bool)
	deliveredCount := 0
	for _, r := range exec.Ledger {
		if r.Dropped {
			dropped[r.Key] = true
		} else {
			deliveredCount++
		}
	}
	if len(dropped) == 0 || deliveredCount == 0 {
		t.Fatalf("want a mix of dropped (%d) and delivered (%d) messages", len(dropped), deliveredCount)
	}
	if log.Len() != deliveredCount {
		t.Fatalf("decision log has %d decisions, want one per delivered message (%d)", log.Len(), deliveredCount)
	}
	for _, d := range log.Decisions() {
		if dropped[d.Key] {
			t.Fatalf("decision log recorded dropped message %v", d.Key)
		}
	}
}

// unhintedAdversary is a minimal Adversary with no DenomHinter: the wrapper
// must report "no hint" rather than inventing a quantization.
type unhintedAdversary struct{}

func (unhintedAdversary) Delay(_, _ int, _ uint64, _, bound rat.Rat) rat.Rat { return bound }

// TestFaultAdversaryDelegation: the wrapper forwards the lane hint and the
// unwrap chain so a faulted run keeps the inner adversary's fixed-point
// quantization and observer feedback.
func TestFaultAdversaryDelegation(t *testing.T) {
	hinted := FaultAdversary{Inner: engine.HashAdversary{Seed: 7, Denom: 8}}
	if got := hinted.DelayDenom(); got != 8 {
		t.Errorf("DelayDenom with hash inner = %d, want 8", got)
	}
	unhinted := FaultAdversary{Inner: unhintedAdversary{}}
	if got := unhinted.DelayDenom(); got != 0 {
		t.Errorf("DelayDenom with unhinted inner = %d, want 0 (no hint)", got)
	}
	if inner := hinted.Unwrap(); inner == nil {
		t.Error("Unwrap returned nil for a wrapped inner")
	}
	// A stateless inner clones to the same composite; the shared immutable
	// model is not copied.
	clone := hinted.CloneAdversary()
	if clone == nil {
		t.Fatal("CloneAdversary returned nil for a stateless inner")
	}
	if _, ok := clone.(FaultAdversary); !ok {
		t.Fatalf("CloneAdversary returned %T, want FaultAdversary", clone)
	}
}
