package engine

import (
	"strings"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

// echoMsg is a test payload.
type echoMsg struct{ Val rat.Rat }

func (m echoMsg) MsgString() string { return "echo:" + m.Val.String() }

// tickNode sends its hardware reading to its successor every period and
// adopts greater received values.
type tickNode struct {
	id     int
	period rat.Rat
}

func (n *tickNode) Init(rt *Runtime) { rt.SetTimerAtHW(n.period, 1) }

func (n *tickNode) OnTimer(rt *Runtime, _ int) {
	if next := n.id + 1; next < rt.N() {
		rt.Send(next, echoMsg{Val: rt.HW()})
	}
	rt.SetTimerAtHW(rt.HW().Add(n.period), 1)
}

func (n *tickNode) OnMessage(rt *Runtime, _ int, msg Message) {
	if m, ok := msg.(echoMsg); ok && m.Val.Greater(rt.Logical()) {
		rt.SetLogical(m.Val, ri(1))
	}
}

type tickProtocol struct{ period rat.Rat }

func (p tickProtocol) Name() string        { return "tick" }
func (p tickProtocol) NewNode(id int) Node { return &tickNode{id: id, period: p.period} }
func (p tickProtocol) CloneState(n Node) Node {
	c := *n.(*tickNode)
	return &c
}

// silentNode does nothing: only init events exist.
type silentNode struct{}

func (silentNode) Init(*Runtime)                    {}
func (silentNode) OnTimer(*Runtime, int)            {}
func (silentNode) OnMessage(*Runtime, int, Message) {}

type silentProtocol struct{}

func (silentProtocol) Name() string           { return "silent" }
func (silentProtocol) NewNode(int) Node       { return silentNode{} }
func (silentProtocol) CloneState(n Node) Node { return n }

func newTestEngine(t *testing.T, n int, proto Protocol, opts ...Option) *Engine {
	t.Helper()
	net, err := network.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Option{WithProtocol(proto), WithRho(rf(1, 2))}, opts...)
	eng, err := New(net, all...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestStepDrainsToIdle(t *testing.T) {
	eng := newTestEngine(t, 3, silentProtocol{})
	for i := 0; i < 3; i++ {
		ok, err := eng.Step()
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	ok, err := eng.Step()
	if err != nil || ok {
		t.Fatalf("idle step: ok=%v err=%v, want exhausted queue", ok, err)
	}
	if eng.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", eng.Steps())
	}
	if !eng.Now().IsZero() || !eng.Horizon().IsZero() {
		t.Errorf("Now=%s Horizon=%s, want 0", eng.Now(), eng.Horizon())
	}
}

func TestRunUntilAndRunForAdvanceHorizon(t *testing.T) {
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)})
	if err := eng.RunUntil(ri(4)); err != nil {
		t.Fatal(err)
	}
	if !eng.Horizon().Equal(ri(4)) {
		t.Errorf("horizon = %s, want 4", eng.Horizon())
	}
	if eng.Now().Greater(ri(4)) {
		t.Errorf("Now = %s beyond horizon", eng.Now())
	}
	if eng.Pending() == 0 {
		t.Error("no pending events beyond horizon; timers should persist")
	}
	if err := eng.RunFor(ri(2)); err != nil {
		t.Fatal(err)
	}
	if !eng.Horizon().Equal(ri(6)) {
		t.Errorf("horizon = %s, want 6", eng.Horizon())
	}
	if err := eng.RunUntil(ri(5)); err == nil {
		t.Error("RunUntil before horizon should error")
	}
	if err := eng.RunFor(rat.Rat{}); err == nil {
		t.Error("RunFor(0) should error")
	}
}

func TestObserverStreamCounts(t *testing.T) {
	var actions, sends, delivers, decls int
	var horizons []rat.Rat
	obs := Funcs{
		Action:  func(trace.Action) { actions++ },
		Send:    func(rec trace.MsgRecord) { sends++ },
		Deliver: func(rec trace.MsgRecord) { delivers++ },
		Declare: func(trace.Decl) { decls++ },
		Horizon: func(tm rat.Rat) { horizons = append(horizons, tm) },
	}
	eng := newTestEngine(t, 2, tickProtocol{period: ri(1)}, WithObservers(obs),
		WithSchedules([]*clock.Schedule{clock.Constant(rf(11, 8)), clock.Constant(ri(1))}))
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if sends == 0 || delivers == 0 || decls == 0 {
		t.Fatalf("stream incomplete: sends=%d delivers=%d decls=%d", sends, delivers, decls)
	}
	if delivers > sends {
		t.Errorf("delivers %d > sends %d", delivers, sends)
	}
	// Actions: 2 inits + timers + sends + recvs; every send and deliver has
	// a matching action.
	if actions < 2+sends+delivers {
		t.Errorf("actions = %d, want >= %d", actions, 2+sends+delivers)
	}
	if len(horizons) != 1 || !horizons[0].Equal(ri(6)) {
		t.Errorf("horizons = %v, want [6]", horizons)
	}
}

func TestObserveMidRunSeesSuffixOnly(t *testing.T) {
	var pre, post int
	eng := newTestEngine(t, 2, tickProtocol{period: ri(1)},
		WithObservers(Funcs{Action: func(trace.Action) { pre++ }}))
	if err := eng.RunUntil(ri(3)); err != nil {
		t.Fatal(err)
	}
	preAt3 := pre
	eng.Observe(Funcs{Action: func(trace.Action) { post++ }})
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if post >= pre {
		t.Errorf("late observer saw %d of %d actions; want a strict suffix", post, pre)
	}
	if pre-preAt3 != post {
		t.Errorf("late observer saw %d actions, want %d", post, pre-preAt3)
	}
}

func TestDefaultsRunWithProtocolOnly(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, WithProtocol(tickProtocol{period: ri(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(ri(3)); err != nil {
		t.Fatal(err)
	}
	if eng.Steps() == 0 {
		t.Error("no events dispatched under default schedules/adversary")
	}
}

func TestConstructionErrors(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, WithProtocol(silentProtocol{})); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := New(net); err == nil {
		t.Error("missing protocol accepted")
	}
	if _, err := New(net, WithProtocol(silentProtocol{}), WithRho(ri(1))); err == nil {
		t.Error("rho = 1 accepted")
	}
	if _, err := New(net, WithProtocol(silentProtocol{}),
		WithSchedules([]*clock.Schedule{clock.Constant(ri(1))})); err == nil {
		t.Error("schedule count mismatch accepted")
	}
	if _, err := New(net, WithProtocol(silentProtocol{}), WithRho(rf(1, 2)),
		WithSchedules([]*clock.Schedule{clock.Constant(ri(3)), clock.Constant(ri(1)), clock.Constant(ri(1))})); err == nil {
		t.Error("drift-violating schedule accepted")
	}
}

// selfSendNode triggers an engine failure on init.
type selfSendNode struct{}

func (selfSendNode) Init(rt *Runtime)                 { rt.Send(rt.ID(), echoMsg{Val: ri(1)}) }
func (selfSendNode) OnTimer(*Runtime, int)            {}
func (selfSendNode) OnMessage(*Runtime, int, Message) {}

type selfSendProtocol struct{}

func (selfSendProtocol) Name() string           { return "self-send" }
func (selfSendProtocol) NewNode(int) Node       { return selfSendNode{} }
func (selfSendProtocol) CloneState(n Node) Node { return n }

func TestErrorPoisonsEngine(t *testing.T) {
	eng := newTestEngine(t, 2, selfSendProtocol{})
	_, err := eng.Step()
	if err == nil {
		t.Fatal("self-send did not fail the run")
	}
	if _, err2 := eng.Step(); err2 != err {
		t.Errorf("second Step error = %v, want the sticky %v", err2, err)
	}
	if err2 := eng.RunUntil(ri(5)); err2 != err {
		t.Errorf("RunUntil error = %v, want the sticky %v", err2, err)
	}
	rec := trace.NewRecorder(2)
	if _, err2 := eng.Execution(rec); err2 != err {
		t.Errorf("Execution error = %v, want the sticky %v", err2, err)
	}
	if eng.Err() != err {
		t.Errorf("Err() = %v, want %v", eng.Err(), err)
	}
}

// TestExecutionRejectsLateRecorder: a recorder attached after the first
// Step holds only part of the run, declarations included, so Execution must
// refuse it rather than compile clocks that silently miss the start. The
// same run with the recorder attached first compiles.
func TestExecutionRejectsLateRecorder(t *testing.T) {
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)})
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	late := trace.NewRecorder(3)
	eng.Observe(late)
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execution(late); err == nil || !strings.Contains(err.Error(), "dispatched events") {
		t.Fatalf("Execution with a recorder attached after the first Step: err = %v", err)
	}

	eng = newTestEngine(t, 3, tickProtocol{period: ri(1)})
	early := trace.NewRecorder(3)
	eng.Observe(early)
	if err := eng.RunUntil(ri(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execution(early); err != nil {
		t.Fatalf("Execution with a recorder attached before the first Step: %v", err)
	}
}

// TestExecutionRejectsFreshRecorderOnFork: a fork starts with no observers,
// and a fresh recorder attached to it sees only the suffix, so Execution
// must refuse it. The Clone of the trunk's recorder carries the prefix and
// compiles.
func TestExecutionRejectsFreshRecorderOnFork(t *testing.T) {
	eng := newTestEngine(t, 3, tickProtocol{period: ri(1)})
	rec := trace.NewRecorder(3)
	eng.Observe(rec)
	if err := eng.RunUntil(ri(3)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		rec    *trace.Recorder
		accept bool
	}{
		{"fresh recorder", trace.NewRecorder(3), false},
		{"trunk's clone", rec.Clone(), true},
	} {
		fork, err := eng.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fork.Observe(tc.rec)
		if err := fork.RunUntil(ri(6)); err != nil {
			t.Fatal(err)
		}
		_, err = fork.Execution(tc.rec)
		if tc.accept && err != nil {
			t.Fatalf("%s on a fork: %v", tc.name, err)
		}
		if !tc.accept && (err == nil || !strings.Contains(err.Error(), "dispatched events")) {
			t.Fatalf("%s on a fork: err = %v, want the missed-events error", tc.name, err)
		}
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*clock.Schedule{clock.Constant(ri(1)), clock.Constant(rf(9, 8)), clock.Constant(ri(1))}
	cfg := Config{
		Net:       net,
		Schedules: scheds,
		Adversary: Midpoint(),
		Protocol:  tickProtocol{period: ri(1)},
		Duration:  ri(10),
		Rho:       rf(1, 2),
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(net, WithProtocol(cfg.Protocol), WithAdversary(cfg.Adversary),
		WithSchedules(scheds), WithRho(cfg.Rho))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(3)
	eng.Observe(rec)
	if err := eng.RunUntil(ri(10)); err != nil {
		t.Fatal(err)
	}
	manual, err := eng.Execution(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(manual.Actions) != len(batch.Actions) {
		t.Fatalf("actions: %d vs %d", len(manual.Actions), len(batch.Actions))
	}
	for i := range manual.Actions {
		if manual.Actions[i] != batch.Actions[i] {
			t.Fatalf("action %d differs: %+v vs %+v", i, manual.Actions[i], batch.Actions[i])
		}
	}
	if len(manual.Ledger) != len(batch.Ledger) {
		t.Fatalf("ledger: %d vs %d", len(manual.Ledger), len(batch.Ledger))
	}
	if err := trace.PrefixEqual(manual, batch, ri(10)); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckIndistinguishable(batch, manual); err != nil {
		t.Fatal(err)
	}
}
