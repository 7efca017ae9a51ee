package trace

import (
	"errors"
	"fmt"

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
// Everything it records is append-only, and no recorded element is ever
// written again: the action log, the per-node index lists, the per-node
// declaration histories, and the ledger, whose records are complete at send
// (a delivery is read off the execution's horizon, see
// Execution.Delivered). Clone shares all four instead of copying them, and
// Execution all but the declarations, which it compiles into clocks.
//
// Each of the four is one contiguous slice, and a slice that outgrows its
// storage moves into storage of twice its length. The views Clone and
// Execution share are capped at their length, so a clone's first append
// copies the shared prefix into storage of its own, and the recorder's own
// appends land past the end of every view. Reserve sizes the storage up
// front from a Size: a run within it then moves nothing, and a clone copies
// its prefix once, into room for its whole branch.
type Recorder struct {
	actions []Action
	perNode [][]int
	// decls holds each node's declarations in order, starting with the
	// implicit StartDecl.
	decls  [][]Decl
	ledger []MsgRecord
	// events counts the Init, Timer and Recv actions recorded: one per
	// engine event dispatched while the recorder (or the one it was cloned
	// from) was attached.
	events uint64
}

// Size counts what a recorded run holds: its actions, its messages, and the
// actions of each node. Recorder.Reserve takes one to allocate a run's
// storage up front instead of growing it.
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
	return &Recorder{perNode: make([][]int, n), decls: decls}
}

// Reserve makes room for a run of the given total size, typically the Size
// of the execution the run replays or extends, so that recording up to it
// moves no storage. Storage too small for the size moves once, into storage
// of that size; for a clone, whose views are capped, that is the one copy
// of its shared prefix. A size whose PerNode length is not the recorder's
// node count (the zero Size, for one) is ignored. Results never depend on
// Reserve.
func (r *Recorder) Reserve(s Size) {
	if len(s.PerNode) != len(r.perNode) {
		return
	}
	if cap(r.actions) < s.Actions {
		r.actions = resized(r.actions, s.Actions)
	}
	for i, k := range s.PerNode {
		if cap(r.perNode[i]) < k {
			r.perNode[i] = resized(r.perNode[i], k)
		}
	}
	if cap(r.ledger) < s.Messages {
		r.ledger = resized(r.ledger, s.Messages)
	}
}

// resized returns s's elements in fresh storage of capacity c ≥ len(s).
func resized[E any](s []E, c int) []E {
	out := make([]E, len(s), c)
	copy(out, s)
	return out
}

// doubled is the capacity a full slice of n elements grows to.
func doubled(n int) int { return max(2*n, 4) }

// push appends v to s, first moving s into storage of twice its length if
// it is full.
func push[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = resized(s, doubled(len(s)))
	}
	return append(s, v)
}

// OnAction implements the engine Observer interface: it appends the action
// to the trace in processing order.
func (r *Recorder) OnAction(a Action) {
	r.perNode[a.Node] = push(r.perNode[a.Node], len(r.actions))
	r.actions = push(r.actions, a)
	if a.Kind != KindSend {
		r.events++
	}
}

// OnDeclare implements the engine ClockObserver interface: it appends the
// declaration to its node's history.
func (r *Recorder) OnDeclare(d Decl) {
	r.decls[d.Node] = push(r.decls[d.Node], d)
}

// Dispatched returns the number of engine events the recorded trace covers:
// its Init, Timer and Recv actions, each of which one dispatched event
// emits. It equals the engine's step count exactly when the recorder saw the
// run from its first event.
func (r *Recorder) Dispatched() uint64 { return r.events }

// OnSend implements the engine Observer interface: it appends the message's
// ledger record, which is complete at send.
func (r *Recorder) OnSend(rec MsgRecord) { r.ledger = push(r.ledger, rec) }

// OnDeliver implements the engine Observer interface. It records nothing:
// the send recorded the receive time, and an execution that is complete
// through its horizon has delivered exactly the messages its horizon
// reaches (Execution.Delivered).
func (r *Recorder) OnDeliver(MsgRecord) {}

// share returns views of the recorded actions, per-node indices and ledger
// with capacity capped at length. The views alias the recorder's storage.
// An append through a view moves it into storage of its own, while the
// recorder appends into spare capacity that no view reaches, so neither
// side ever sees the other's later records.
func (r *Recorder) share() ([]Action, [][]int, []MsgRecord) {
	perNode := make([][]int, len(r.perNode))
	for i, idxs := range r.perNode {
		perNode[i] = idxs[:len(idxs):len(idxs)]
	}
	return r.actions[:len(r.actions):len(r.actions)], perNode, r.ledger[:len(r.ledger):len(r.ledger)]
}

// Clone returns a recorder that continues from r's trace. Attach the clone
// to a forked engine to keep recording a branched run: the clone carries the
// shared prefix, and the original keeps recording its own branch untouched.
// The recorded actions, declarations and ledger are shared, not copied.
func (r *Recorder) Clone() *Recorder {
	actions, perNode, ledger := r.share()
	decls := make([][]Decl, len(r.decls))
	for i, ds := range r.decls {
		decls[i] = ds[:len(ds):len(ds)]
	}
	return &Recorder{actions: actions, perNode: perNode, decls: decls, ledger: ledger, events: r.events}
}

// Execution assembles the recorded trace with the environment into a
// complete Execution through real time horizon: it compiles each node's
// logical clock from its declarations and hardware schedule. The run must
// be complete through horizon, since delivery is read off it (see
// Engine.Execution). The returned Execution is a stable, read-only
// snapshot: its Actions, PerNode and Ledger share the recorder's storage
// (see share), which nothing ever overwrites. The engine can keep running
// (and the Recorder keep recording) without changing it, and a later
// Execution call yields the extended trace. Apart from the compiled clocks,
// a snapshot costs one slice header per node whatever the trace's length.
func (r *Recorder) Execution(net *network.Network, scheds []*clock.Schedule, horizon rat.Rat) (*Execution, error) {
	n := len(r.decls)
	if net.N() != n || len(scheds) != n {
		return nil, fmt.Errorf("trace: %d-node network and %d schedules for a %d-node recording", net.N(), len(scheds), n)
	}
	logical := make([]*piecewise.PLF, n)
	for i, s := range scheds {
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
