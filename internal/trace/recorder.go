package trace

import (
	"errors"
	"fmt"
	"maps"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
)

// Recorder is the full-trace observer: it buffers every action, message
// record and logical-clock declaration streamed by an engine, and it is the
// only place a run's history is kept: the engine holds just what the run
// needs next. Recording is just one more observer — attach a Recorder for
// post-hoc analysis, or leave it off and run with online trackers in memory
// independent of event count.
//
// A Recorder must be attached before the first event is dispatched to
// capture a complete trace; Engine.Execution refuses one that was not.
//
// The action log, the per-node index lists and the per-node declaration
// histories are append-only: no recorded element is ever written again. The
// ledger holds one record per message in send order; a delivery overwrites
// its message's record in place. Clone shares all four instead of copying
// them, and Execution all but the declarations, which it compiles into
// clocks. The recorder remembers how much of the ledger it has shared: a
// delivery that would write into that prefix first copies the ledger
// (copy-on-write), so a shared view never changes.
type Recorder struct {
	actions []Action
	perNode [][]int
	// decls holds each node's declarations in order, starting with the
	// implicit StartDecl.
	decls  [][]Decl
	ledger []MsgRecord
	// inFlight maps each message sent but not yet delivered to its ledger
	// index; a delivery removes its entry.
	inFlight map[MsgKey]int32
	// shared is the length of the ledger prefix that snapshots and clones
	// may still read.
	shared int
	// events counts the Init, Timer and Recv actions recorded: one per
	// engine event dispatched while the recorder (or the one it was cloned
	// from) was attached.
	events uint64
}

// Size counts what a recorded run holds: its actions, its messages, and the
// actions of each node. A Recorder sized from one allocates its storage up
// front instead of growing it.
type Size struct {
	Actions  int
	Messages int
	PerNode  []int
}

// NewRecorder returns a Recorder for an n-node system.
func NewRecorder(n int) *Recorder {
	start := make([]Decl, n)
	decls := make([][]Decl, n)
	for i := range start {
		start[i] = StartDecl(i)
		decls[i] = start[i : i+1 : i+1]
	}
	return &Recorder{
		perNode:  make([][]int, n),
		decls:    decls,
		inFlight: make(map[MsgKey]int32),
	}
}

// NewSizedRecorder returns a Recorder for an n-node system with storage for
// a run of the given size, typically the Size of the execution the run
// replays. The hint sets capacities only: a run that outgrows it grows as
// under NewRecorder, and a hint whose PerNode length is not n (the zero
// Size, for one) is ignored.
func NewSizedRecorder(n int, hint Size) *Recorder {
	r := NewRecorder(n)
	if len(hint.PerNode) != n {
		return r
	}
	r.actions = make([]Action, 0, hint.Actions)
	r.ledger = make([]MsgRecord, 0, hint.Messages)
	for i, k := range hint.PerNode {
		r.perNode[i] = make([]int, 0, k)
	}
	return r
}

// OnAction implements the engine Observer interface: it appends the action
// to the trace in processing order.
func (r *Recorder) OnAction(a Action) {
	r.perNode[a.Node] = append(r.perNode[a.Node], len(r.actions))
	r.actions = append(r.actions, a)
	if a.Kind != KindSend {
		r.events++
	}
}

// OnDeclare implements the engine ClockObserver interface: it appends the
// declaration to its node's history.
func (r *Recorder) OnDeclare(d Decl) {
	r.decls[d.Node] = append(r.decls[d.Node], d)
}

// Dispatched returns the number of engine events the recorded trace covers:
// its Init, Timer and Recv actions, each of which one dispatched event
// emits. It equals the engine's step count exactly when the recorder saw the
// run from its first event.
func (r *Recorder) Dispatched() uint64 { return r.events }

// OnSend implements the engine Observer interface: it appends the message's
// ledger record and, unless the message was dropped, remembers where it is
// so the delivery can close it.
func (r *Recorder) OnSend(rec MsgRecord) {
	if !rec.Dropped {
		r.inFlight[rec.Key] = int32(len(r.ledger))
	}
	r.ledger = append(r.ledger, rec)
}

// OnDeliver implements the engine Observer interface: it closes the
// message's ledger record with the realized receive time. A message sent
// before the recorder was attached has no open record and is appended.
func (r *Recorder) OnDeliver(rec MsgRecord) {
	i, ok := r.inFlight[rec.Key]
	if !ok {
		r.ledger = append(r.ledger, rec)
		return
	}
	delete(r.inFlight, rec.Key)
	if int(i) < r.shared {
		owned := make([]MsgRecord, len(r.ledger), cap(r.ledger))
		copy(owned, r.ledger)
		r.ledger, r.shared = owned, 0
	}
	r.ledger[i] = rec
}

// share returns views of the recorded actions, per-node indices and ledger
// with capacity capped at length, and marks the whole ledger as shared. The
// views alias the recorder's storage; an append through either a view or
// the recorder then reallocates instead of writing past the shared prefix,
// so neither side ever sees the other's later records, and OnDeliver copies
// the ledger before it overwrites a shared record.
func (r *Recorder) share() ([]Action, [][]int, []MsgRecord) {
	perNode := make([][]int, len(r.perNode))
	for i, idxs := range r.perNode {
		perNode[i] = idxs[:len(idxs):len(idxs)]
	}
	r.shared = len(r.ledger)
	return r.actions[:len(r.actions):len(r.actions)], perNode, r.ledger[:r.shared:r.shared]
}

// Clone returns a recorder that continues from r's trace. Attach the clone
// to a forked engine to keep recording a branched run: the clone carries the
// shared prefix, and the original keeps recording its own branch untouched.
// The recorded actions, declarations and ledger are shared, not copied; only
// the index of messages in flight is.
func (r *Recorder) Clone() *Recorder {
	actions, perNode, ledger := r.share()
	decls := make([][]Decl, len(r.decls))
	for i, ds := range r.decls {
		decls[i] = ds[:len(ds):len(ds)]
	}
	return &Recorder{
		actions:  actions,
		perNode:  perNode,
		decls:    decls,
		ledger:   ledger,
		inFlight: maps.Clone(r.inFlight),
		shared:   len(ledger),
		events:   r.events,
	}
}

// Execution assembles the recorded trace with the environment into a
// complete Execution through real time horizon: it compiles each node's
// logical clock from its declarations and hardware schedule, and its
// hardware clock from the schedule. The returned Execution is a stable,
// read-only snapshot: its Actions, PerNode and Ledger share the recorder's
// storage (see share). The engine can keep running (and the Recorder keep
// recording) without changing it, and a later Execution call yields the
// extended trace. Apart from the compiled clocks, a snapshot costs one slice
// header per node whatever the trace's length; the first later delivery of
// a message sent before it copies the ledger once.
func (r *Recorder) Execution(net *network.Network, scheds []*clock.Schedule, horizon rat.Rat) (*Execution, error) {
	n := len(r.decls)
	if net.N() != n || len(scheds) != n {
		return nil, fmt.Errorf("trace: %d-node network and %d schedules for a %d-node recording", net.N(), len(scheds), n)
	}
	logical := make([]*piecewise.PLF, n)
	hardware := make([]*piecewise.PLF, n)
	for i, s := range scheds {
		hardware[i] = s.HWFunc()
		plf, err := compileLogical(s, r.decls[i], horizon)
		if err != nil {
			return nil, fmt.Errorf("trace: node %d logical clock: %w", i, err)
		}
		logical[i] = plf
	}
	actions, perNode, ledger := r.share()
	return &Execution{
		Net:       net,
		Schedules: scheds,
		Duration:  horizon,
		Actions:   actions,
		PerNode:   perNode,
		Ledger:    ledger,
		Logical:   logical,
		Hardware:  hardware,
	}, nil
}

// compileLogical merges a node's logical-clock declarations with its
// hardware rate schedule into an exact piecewise-linear L(t) over real time,
// truncated at the horizon. Between declarations L is the declaration's
// ValueAt of the hardware clock, so within one hardware rate segment the
// real-time slope is Mult·rate.
func compileLogical(sched *clock.Schedule, decls []Decl, horizon rat.Rat) (*piecewise.PLF, error) {
	if len(decls) == 0 {
		return nil, errors.New("no logical declarations")
	}
	plf := piecewise.New(rat.Rat{}, decls[0].Value, decls[0].Mult.Mul(sched.RateAt(rat.Rat{})))
	rateBreaks := sched.RatesView() // read-only walk; never modified
	ri := 0                         // index of the rate segment in effect
	advanceRate := func(t rat.Rat) {
		for ri+1 < len(rateBreaks) && rateBreaks[ri+1].At.LessEq(t) {
			ri++
		}
	}
	cur := decls[0]
	emit := func(at rat.Rat, d Decl) error {
		advanceRate(at)
		return plf.Append(at, d.ValueAt(sched.HW(at)), d.Mult.Mul(rateBreaks[ri].Rate))
	}
	for k := 1; k < len(decls); k++ {
		d := decls[k]
		// Rate breakpoints strictly between the previous declaration and this
		// one change the real-time slope of the current declaration.
		for _, rb := range rateBreaks {
			if rb.At.Greater(cur.Real) && rb.At.Less(d.Real) && rb.At.LessEq(horizon) {
				if err := emit(rb.At, cur); err != nil {
					return nil, err
				}
			}
		}
		if d.Real.Greater(horizon) {
			return plf, nil
		}
		if err := emit(d.Real, d); err != nil {
			return nil, err
		}
		cur = d
	}
	for _, rb := range rateBreaks {
		if rb.At.Greater(cur.Real) && rb.At.LessEq(horizon) {
			if err := emit(rb.At, cur); err != nil {
				return nil, err
			}
		}
	}
	return plf, nil
}
