package trace

import (
	"strings"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

// buildExec assembles a 2-node execution by hand.
func buildExec(t *testing.T, dur rat.Rat, rates []rat.Rat, actions []Action) *Execution {
	t.Helper()
	net, err := network.TwoNode(ri(2))
	if err != nil {
		t.Fatal(err)
	}
	scheds := make([]*clock.Schedule, 2)
	logical := make([]*piecewise.PLF, 2)
	hardware := make([]*piecewise.PLF, 2)
	for i := range scheds {
		scheds[i] = clock.Constant(rates[i])
		hardware[i] = scheds[i].HWFunc()
		logical[i] = scheds[i].HWFunc()
	}
	perNode := make([][]int, 2)
	for idx, a := range actions {
		perNode[a.Node] = append(perNode[a.Node], idx)
	}
	return &Execution{
		Net:       net,
		Schedules: scheds,
		Duration:  dur,
		Actions:   actions,
		PerNode:   perNode,
		Logical:   logical,
		Hardware:  hardware,
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindInit, "init"},
		{KindRecv, "recv"},
		{KindTimer, "timer"},
		{KindSend, "send"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestExecutionAccessors(t *testing.T) {
	e := buildExec(t, ri(10), []rat.Rat{ri(1), rf(5, 4)}, []Action{
		{Node: 0, Kind: KindInit, Peer: -1},
		{Node: 1, Kind: KindInit, Peer: -1},
		{Node: 0, Kind: KindTimer, Real: ri(1), HW: ri(1), Peer: -1, TimerID: 1},
	})
	if e.N() != 2 {
		t.Errorf("N = %d", e.N())
	}
	if got := e.HWAt(1, ri(4)); !got.Equal(ri(5)) {
		t.Errorf("HWAt(1,4) = %s, want 5", got)
	}
	if got := e.LogicalAt(1, ri(4)); !got.Equal(ri(5)) {
		t.Errorf("LogicalAt(1,4) = %s, want 5", got)
	}
	// L1 - L0 at duration: 25/2 - 10 = 5/2.
	if got := e.FinalSkew(1, 0); !got.Equal(rf(5, 2)) {
		t.Errorf("FinalSkew = %s, want 5/2", got)
	}
	ext := e.MaxAbsSkew(0, 1, rat.Rat{}, ri(10))
	if !ext.Val.Equal(rf(5, 2)) || !ext.At.Equal(ri(10)) {
		t.Errorf("MaxAbsSkew = %s at %s", ext.Val, ext.At)
	}
	acts := e.NodeActions(0)
	if len(acts) != 2 || acts[1].Kind != KindTimer {
		t.Errorf("NodeActions(0) = %+v", acts)
	}
}

func TestCheckIndistinguishableIdentical(t *testing.T) {
	mk := func() *Execution {
		return buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
			{Node: 0, Kind: KindInit, Peer: -1},
			{Node: 1, Kind: KindInit, Peer: -1},
			{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
		})
	}
	if err := CheckIndistinguishable(mk(), mk()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIndistinguishablePrefix(t *testing.T) {
	// alpha has two timers at node 0; beta is a shorter run covering only
	// the first. Indistinguishability holds because beta's horizon excludes
	// the second.
	alpha := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindInit, Peer: -1},
		{Node: 1, Kind: KindInit, Peer: -1},
		{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
		{Node: 0, Kind: KindTimer, Real: ri(8), HW: ri(8), Peer: -1, TimerID: 1},
	})
	beta := buildExec(t, ri(5), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindInit, Peer: -1},
		{Node: 1, Kind: KindInit, Peer: -1},
		{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
	})
	if err := CheckIndistinguishable(alpha, beta); err != nil {
		t.Fatal(err)
	}
	// The reverse fails: alpha (longer horizon) has actions beta lacks...
	// beta as the base with alpha as the constructed execution demands
	// alpha's horizon-limited view to include the HW-8 timer, which beta
	// lacks.
	if err := CheckIndistinguishable(beta, alpha); err == nil {
		t.Error("expected mismatch when constructed execution has extra actions")
	}
}

func TestCheckIndistinguishableHWShift(t *testing.T) {
	// Same actions, but at different hardware readings: must fail.
	alpha := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
	})
	beta := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(3), Peer: -1, TimerID: 1},
	})
	err := CheckIndistinguishable(alpha, beta)
	if err == nil {
		t.Fatal("expected hardware-reading mismatch")
	}
	if !strings.Contains(err.Error(), "differs") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCheckIndistinguishablePayload(t *testing.T) {
	mk := func(payload string) *Execution {
		return buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
			{Node: 0, Kind: KindRecv, Real: ri(2), HW: ri(2), Peer: 1, MsgSeq: 0, Payload: payload},
		})
	}
	if err := CheckIndistinguishable(mk("v:1"), mk("v:1")); err != nil {
		t.Fatal(err)
	}
	if err := CheckIndistinguishable(mk("v:1"), mk("v:2")); err == nil {
		t.Error("expected payload mismatch")
	}
}

func TestCheckDelayBounds(t *testing.T) {
	e := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, nil)
	key := MsgKey{From: 0, To: 1, Seq: 0}
	e.Ledger = []MsgRecord{{
		Key: key, SendReal: ri(1), RecvReal: ri(2), Delay: ri(1), Delivered: true,
	}}
	// d(0,1) = 2; delay 1 = d/2 within [1/4, 3/4]·d.
	if err := CheckDelayBounds(e, rat.Rat{}, ri(10), rf(1, 4), rf(3, 4)); err != nil {
		t.Fatal(err)
	}
	// Tighter bounds fail.
	if err := CheckDelayBounds(e, rat.Rat{}, ri(10), rf(5, 8), ri(1)); err == nil {
		t.Error("expected delay bound violation")
	}
	// Outside the window: ignored.
	if err := CheckDelayBounds(e, ri(5), ri(10), rf(5, 8), ri(1)); err != nil {
		t.Errorf("message outside window should be ignored: %v", err)
	}
	// Undelivered: ignored.
	e.Ledger[0] = MsgRecord{Key: key, SendReal: ri(1), Delay: ri(2), Delivered: false}
	if err := CheckDelayBounds(e, rat.Rat{}, ri(10), rf(1, 2), rf(1, 2)); err != nil {
		t.Errorf("undelivered message should be ignored: %v", err)
	}
}

// TestCheckDelayBoundsReportsSmallestKey: with several violating messages,
// the error names the one with the smallest (From, To, Seq) key on every
// call, not the first one in the ledger's send order.
func TestCheckDelayBoundsReportsSmallestKey(t *testing.T) {
	e := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, nil)
	for _, key := range []MsgKey{{1, 0, 0}, {0, 1, 3}, {1, 0, 2}, {0, 1, 2}, {0, 1, 5}} {
		// d(0,1) = 2; delay 0 is below the lower bound 2/4.
		e.Ledger = append(e.Ledger, MsgRecord{Key: key, SendReal: ri(2), RecvReal: ri(2), Delivered: true})
	}
	want := "trace: message {0 1 2} delay 0 outside [1/4, 3/4]·2"
	for run := 0; run < 20; run++ {
		err := CheckDelayBounds(e, rat.Rat{}, ri(10), rf(1, 4), rf(3, 4))
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", run, err, want)
		}
	}
}

func TestCheckRateBounds(t *testing.T) {
	e := buildExec(t, ri(10), []rat.Rat{ri(1), rf(9, 8)}, nil)
	if err := CheckRateBounds(e, rat.Rat{}, ri(10), ri(1), rf(5, 4)); err != nil {
		t.Fatal(err)
	}
	if err := CheckRateBounds(e, rat.Rat{}, ri(10), ri(1), ri(1)); err == nil {
		t.Error("expected rate bound violation for 9/8 > 1")
	}
}

func TestPrefixEqual(t *testing.T) {
	mk := func(extra bool) *Execution {
		acts := []Action{
			{Node: 0, Kind: KindInit, Peer: -1},
			{Node: 1, Kind: KindInit, Peer: -1},
			{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
		}
		if extra {
			acts = append(acts, Action{Node: 0, Kind: KindTimer, Real: ri(7), HW: ri(7), Peer: -1, TimerID: 1})
		}
		return buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, acts)
	}
	// Equal up to t=5 even though one has a later extra action.
	if err := PrefixEqual(mk(false), mk(true), ri(5)); err != nil {
		t.Fatal(err)
	}
	// Not equal up to t=8.
	if err := PrefixEqual(mk(false), mk(true), ri(8)); err == nil {
		t.Error("expected prefix mismatch at t=8")
	}
}

func TestPrefixEqualDifferentRealTimes(t *testing.T) {
	a := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindTimer, Real: ri(2), HW: ri(2), Peer: -1, TimerID: 1},
	})
	b := buildExec(t, ri(10), []rat.Rat{ri(1), ri(1)}, []Action{
		{Node: 0, Kind: KindTimer, Real: ri(3), HW: ri(2), Peer: -1, TimerID: 1},
	})
	// Same observation but different real time: PrefixEqual is stricter
	// than indistinguishability and must fail.
	if err := PrefixEqual(a, b, ri(5)); err == nil {
		t.Error("expected real-time mismatch")
	}
}
