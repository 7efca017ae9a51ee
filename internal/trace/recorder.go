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
// element is ever written again. Clone and Execution rely on that to share
// them instead of copying.
type Recorder struct {
	actions []Action
	perNode [][]int
	ledger  map[MsgKey]MsgRecord
}

// NewRecorder returns a Recorder for an n-node system.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		perNode: make([][]int, n),
		ledger:  make(map[MsgKey]MsgRecord),
	}
}

// OnAction implements the engine Observer interface: it appends the action
// to the trace in processing order.
func (r *Recorder) OnAction(a Action) {
	r.perNode[a.Node] = append(r.perNode[a.Node], len(r.actions))
	r.actions = append(r.actions, a)
}

// OnSend implements the engine Observer interface: it opens the message's
// ledger entry.
func (r *Recorder) OnSend(rec MsgRecord) { r.ledger[rec.Key] = rec }

// OnDeliver implements the engine Observer interface: it closes the
// message's ledger entry with the realized receive time.
func (r *Recorder) OnDeliver(rec MsgRecord) { r.ledger[rec.Key] = rec }

// shared returns views of the recorded actions and per-node indices with
// capacity capped at length. The views alias the recorder's storage; an
// append through either a view or the recorder then reallocates instead of
// writing past the shared prefix, so neither side ever sees the other's
// later actions.
func (r *Recorder) shared() ([]Action, [][]int) {
	perNode := make([][]int, len(r.perNode))
	for i, idxs := range r.perNode {
		perNode[i] = idxs[:len(idxs):len(idxs)]
	}
	return r.actions[:len(r.actions):len(r.actions)], perNode
}

// Clone returns a recorder that continues from r's trace. Attach the clone
// to a forked engine to keep recording a branched run: the clone carries the
// shared prefix, and the original keeps recording its own branch untouched.
// The recorded actions are shared, not copied; only the ledger is copied,
// because OnDeliver overwrites its entries.
func (r *Recorder) Clone() *Recorder {
	actions, perNode := r.shared()
	return &Recorder{actions: actions, perNode: perNode, ledger: maps.Clone(r.ledger)}
}

// Actions returns the number of actions recorded so far.
func (r *Recorder) Actions() int { return len(r.actions) }

// Messages returns the number of ledger entries recorded so far.
func (r *Recorder) Messages() int { return len(r.ledger) }

// Execution assembles the recorded trace with the environment and compiled
// clocks into a complete Execution. The returned Execution is a stable,
// read-only snapshot: its Actions and PerNode share the recorder's storage
// (see shared), and its Ledger is a copy. The engine can keep running (and
// the Recorder keep recording) without changing it, and a later Execution
// call yields the extended trace. The cost of a snapshot is the ledger copy
// plus one slice header per node; it does not grow with the action count.
func (r *Recorder) Execution(net *network.Network, scheds []*clock.Schedule, duration rat.Rat,
	logical, hardware []*piecewise.PLF) *Execution {
	actions, perNode := r.shared()
	return &Execution{
		Net:       net,
		Schedules: scheds,
		Duration:  duration,
		Actions:   actions,
		PerNode:   perNode,
		Ledger:    maps.Clone(r.ledger),
		Logical:   logical,
		Hardware:  hardware,
	}
}
