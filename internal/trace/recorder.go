package trace

import (
	"maps"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
)

// Recorder is the full-trace observer: it buffers every action and message
// record streamed by an engine, exactly reproducing the ledger and action
// log the batch simulator used to build in place. Recording is just one more
// observer — attach a Recorder for post-hoc analysis, or leave it off and
// run with online trackers in O(1) memory per event.
//
// A Recorder must be attached before the first event is dispatched to
// capture a complete trace.
//
// The action log and the per-node index lists are append-only: no recorded
// element is ever written again. The ledger holds one record per message in
// send order; a delivery overwrites its message's record in place. Clone and
// Execution share all three instead of copying them, and the recorder
// remembers how much of the ledger it has shared: a delivery that would
// write into that prefix first copies the ledger (copy-on-write), so a
// shared view never changes.
type Recorder struct {
	actions []Action
	perNode [][]int
	ledger  []MsgRecord
	// inFlight maps each message sent but not yet delivered to its ledger
	// index; a delivery removes its entry.
	inFlight map[MsgKey]int32
	// shared is the length of the ledger prefix that snapshots and clones
	// may still read.
	shared int
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
	return &Recorder{
		perNode:  make([][]int, n),
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
}

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
// The recorded actions and the ledger are shared, not copied; only the index
// of messages in flight is.
func (r *Recorder) Clone() *Recorder {
	actions, perNode, ledger := r.share()
	return &Recorder{
		actions:  actions,
		perNode:  perNode,
		ledger:   ledger,
		inFlight: maps.Clone(r.inFlight),
		shared:   len(ledger),
	}
}

// Execution assembles the recorded trace with the environment and compiled
// clocks into a complete Execution. The returned Execution is a stable,
// read-only snapshot: its Actions, PerNode and Ledger share the recorder's
// storage (see share). The engine can keep running (and the Recorder keep
// recording) without changing it, and a later Execution call yields the
// extended trace. A snapshot costs one slice header per node whatever the
// trace's length; the first later delivery of a message sent before it
// copies the ledger once.
func (r *Recorder) Execution(net *network.Network, scheds []*clock.Schedule, duration rat.Rat,
	logical, hardware []*piecewise.PLF) *Execution {
	actions, perNode, ledger := r.share()
	return &Execution{
		Net:       net,
		Schedules: scheds,
		Duration:  duration,
		Actions:   actions,
		PerNode:   perNode,
		Ledger:    ledger,
		Logical:   logical,
		Hardware:  hardware,
	}
}
