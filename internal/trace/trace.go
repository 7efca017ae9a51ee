// Package trace records executions of the simulated timed-automaton system
// and implements the indistinguishability comparison at the heart of the
// Fan & Lynch lower-bound arguments.
//
// An Execution holds, for every node, the ordered sequence of actions it
// observed (init, timer firings, message receipts, sends), each stamped with
// both the real time and the node's hardware-clock reading, plus the
// compiled hardware and logical clocks as exact piecewise-linear functions
// of real time, and a ledger of every message with its realized delay, in
// send order.
//
// A Recorder builds Executions from an engine's event stream, compiling each
// logical clock from the declarations it recorded. Its snapshots share the
// recorded storage instead of copying it: the action log is append-only,
// and the ledger, whose records deliveries close in place, is copied on the
// first write into a prefix a snapshot or clone still reads. Recorded traces
// are therefore read-only.
//
// The paper's indistinguishability principle (§3): if the same actions occur
// in the same per-node order at the same hardware-clock readings in two
// executions, every node behaves identically in both. CheckIndistinguishable
// verifies exactly that property between a constructed execution and its
// original, which is what makes the Add Skew and Bounded Increase
// constructions checkable rather than merely asserted.
package trace

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
)

// Kind classifies node actions.
type Kind int

// Action kinds. Recv sorts before Timer at equal times in the simulator's
// deterministic event order.
const (
	KindInit Kind = iota + 1
	KindRecv
	KindTimer
	KindSend
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInit:
		return "init"
	case KindRecv:
		return "recv"
	case KindTimer:
		return "timer"
	case KindSend:
		return "send"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Action is one observable step at one node.
type Action struct {
	Node    int
	Kind    Kind
	Real    rat.Rat // real time of occurrence (adversary-visible only)
	HW      rat.Rat // the node's hardware reading at occurrence (node-visible)
	Peer    int     // sender (Recv) or destination (Send); -1 otherwise
	MsgSeq  uint64  // ordinal of the message on its ordered pair (Recv/Send)
	TimerID int     // Timer only
	Payload string  // canonical message string (Recv/Send)
}

// observation renders the node-visible part of an Action: what
// indistinguishability compares. The checkers compare it field by field with
// sameObservation and build this string only for their error messages; it
// stays the reference that sameObservation must agree with.
func (a Action) observation() string {
	var b strings.Builder
	b.Grow(32 + len(a.Payload))
	b.WriteString(a.Kind.String())
	b.WriteString("|hw=")
	b.WriteString(a.HW.String())
	b.WriteString("|peer=")
	b.WriteString(strconv.Itoa(a.Peer))
	b.WriteString("|mseq=")
	b.WriteString(strconv.FormatUint(a.MsgSeq, 10))
	b.WriteString("|timer=")
	b.WriteString(strconv.Itoa(a.TimerID))
	b.WriteByte('|')
	b.WriteString(a.Payload)
	return b.String()
}

// sameObservation reports a.observation() == b.observation() without
// building either string. The rendering is injective: Kind's name and the
// numeric fields contain no '|', the payload comes last, and a Rat's String
// is canonical, so HW compares by value.
func sameObservation(a, b *Action) bool {
	return a.Kind == b.Kind && a.Peer == b.Peer && a.MsgSeq == b.MsgSeq &&
		a.TimerID == b.TimerID && a.Payload == b.Payload && a.HW.Equal(b.HW)
}

// Decl is one logical-clock declaration by a node: from hardware reading HW0
// on, L(H) = Value + Mult·(H − HW0). Real is the real time of the
// declaration (adversary-visible only; nodes declare in terms of HW0).
// Declarations are streamed to engine ClockObservers, which is how online
// metrics follow logical clocks without retaining a trace.
type Decl struct {
	Node  int
	Real  rat.Rat
	HW0   rat.Rat
	Value rat.Rat
	Mult  rat.Rat
}

// StartDecl returns the declaration every node starts with, L = H: value 0
// and multiplier 1 from hardware reading 0 at real time 0. Nodes never
// announce it.
func StartDecl(node int) Decl { return Decl{Node: node, Mult: rat.FromInt(1)} }

// ValueAt returns the logical clock the declaration defines at hardware
// reading hw: Value + Mult·(hw − HW0).
func (d Decl) ValueAt(hw rat.Rat) rat.Rat { return d.Value.Add(d.Mult.Mul(hw.Sub(d.HW0))) }

// MsgKey identifies the seq-th message sent from From to To in an execution.
type MsgKey struct {
	From, To int
	Seq      uint64
}

// Compare orders message keys by (From, To, Seq), returning -1, 0 or +1 as
// k sorts before, equal to or after o. It is the one canonical key order:
// wire scripts, dedup keys and smallest-violation reports all use it, for
// example slices.SortFunc(keys, MsgKey.Compare).
func (k MsgKey) Compare(o MsgKey) int {
	if c := cmp.Compare(k.From, o.From); c != 0 {
		return c
	}
	if c := cmp.Compare(k.To, o.To); c != 0 {
		return c
	}
	return cmp.Compare(k.Seq, o.Seq)
}

// MsgRecord is a ledger entry for one message. Its payload is on the Send
// and Recv actions, which is where indistinguishability compares it.
type MsgRecord struct {
	Key       MsgKey
	SendReal  rat.Rat
	RecvReal  rat.Rat // meaningful only when Delivered
	Delay     rat.Rat
	Delivered bool // received within the execution horizon
	Dropped   bool // removed by the adversary's fault model at send; never delivered
}

// Execution is a completed run.
//
// An Execution from Recorder.Execution is a read-only snapshot: Actions,
// PerNode and Ledger share the recorder's storage (and that of any other
// snapshot or clone of it), so writing an element would change them all.
type Execution struct {
	Net       *network.Network
	Schedules []*clock.Schedule
	Duration  rat.Rat
	Actions   []Action         // in processing order
	PerNode   [][]int          // indices into Actions, per node
	Ledger    []MsgRecord      // one record per message, in send order
	Logical   []*piecewise.PLF // per-node logical clock over real time
	Hardware  []*piecewise.PLF // per-node hardware clock over real time
}

// N returns the number of nodes.
func (e *Execution) N() int { return e.Net.N() }

// LogicalAt returns L_i(t).
func (e *Execution) LogicalAt(i int, t rat.Rat) rat.Rat { return e.Logical[i].Eval(t) }

// HWAt returns H_i(t).
func (e *Execution) HWAt(i int, t rat.Rat) rat.Rat { return e.Schedules[i].HW(t) }

// FinalSkew returns L_i(duration) − L_j(duration).
func (e *Execution) FinalSkew(i, j int) rat.Rat {
	return e.LogicalAt(i, e.Duration).Sub(e.LogicalAt(j, e.Duration))
}

// MaxAbsSkew returns the maximum of |L_i − L_j| over [from, to].
func (e *Execution) MaxAbsSkew(i, j int, from, to rat.Rat) piecewise.Extremum {
	return piecewise.MaxAbsDiff(e.Logical[i], e.Logical[j], from, to)
}

// Size returns the execution's action, message and per-node action counts:
// the hint that sizes a Recorder replaying a run like this one.
func (e *Execution) Size() Size {
	perNode := make([]int, len(e.PerNode))
	for i, idxs := range e.PerNode {
		perNode[i] = len(idxs)
	}
	return Size{Actions: len(e.Actions), Messages: len(e.Ledger), PerNode: perNode}
}

// NodeActions returns node i's actions in order.
func (e *Execution) NodeActions(i int) []Action {
	out := make([]Action, len(e.PerNode[i]))
	for k, idx := range e.PerNode[i] {
		out[k] = e.Actions[idx]
	}
	return out
}

// CheckIndistinguishable verifies that beta is indistinguishable from alpha
// to every node, in the sense of §3 of the paper, up to beta's horizon:
// for every node i, the sequence of actions i observes in beta must match,
// action for action and hardware reading for hardware reading, the prefix of
// i's actions in alpha with hardware readings ≤ H_i^β(ℓ(β)); and beta must
// contain that entire prefix (no missing actions).
func CheckIndistinguishable(alpha, beta *Execution) error {
	if alpha.N() != beta.N() {
		return fmt.Errorf("trace: node counts differ: %d vs %d", alpha.N(), beta.N())
	}
	for i := 0; i < alpha.N(); i++ {
		horizon := beta.HWAt(i, beta.Duration)
		av, bv := alpha.PerNode[i], beta.PerNode[i]
		// The alpha prefix visible within beta's horizon.
		visible := 0
		for _, x := range av {
			if alpha.Actions[x].HW.LessEq(horizon) {
				visible++
			}
		}
		if visible != len(bv) {
			return fmt.Errorf("trace: node %d observes %d actions in beta, want %d (horizon H=%s)",
				i, len(bv), visible, horizon)
		}
		k := 0
		for _, x := range av {
			a := &alpha.Actions[x]
			if !a.HW.LessEq(horizon) {
				continue
			}
			if b := &beta.Actions[bv[k]]; !sameObservation(a, b) {
				return fmt.Errorf("trace: node %d action %d differs:\n  alpha: %s\n  beta:  %s",
					i, k, a.observation(), b.observation())
			}
			k++
		}
	}
	return nil
}

// CheckDelayBounds verifies every delivered message's delay lies within
// [lo·d(i,j), hi·d(i,j)] for messages received in the real-time window
// (from, to]. The Add Skew lemma both assumes such bounds on α's suffix
// (lo = hi = 1/2) and guarantees them on β ([1/4, 3/4]). Of several
// violations it reports the one with the smallest key, so the error does not
// depend on the ledger's order.
func CheckDelayBounds(e *Execution, from, to, lo, hi rat.Rat) error {
	var bad MsgKey
	var err error
	for i := range e.Ledger {
		rec := &e.Ledger[i]
		if !rec.Delivered {
			continue
		}
		if rec.RecvReal.LessEq(from) || rec.RecvReal.Greater(to) {
			continue
		}
		key := rec.Key
		d := e.Net.Dist(key.From, key.To)
		if rec.Delay.Less(lo.Mul(d)) || rec.Delay.Greater(hi.Mul(d)) {
			if err == nil || key.Compare(bad) < 0 {
				bad = key
				err = fmt.Errorf("trace: message %v delay %s outside [%s, %s]·%s",
					key, rec.Delay, lo, hi, d)
			}
		}
	}
	return err
}

// CheckRateBounds verifies every node's hardware rate lies within [lo, hi]
// during [from, to].
func CheckRateBounds(e *Execution, from, to, lo, hi rat.Rat) error {
	for i, s := range e.Schedules {
		if err := s.ValidateRange(from, to, lo, hi); err != nil {
			return fmt.Errorf("trace: node %d: %w", i, err)
		}
	}
	return nil
}

// PrefixEqual verifies that two executions are identical (same actions, same
// real times, same per-node order) up to real time t. Used to confirm that
// the main-theorem extension α_{k+1} really extends β_k without perturbing
// its past.
func PrefixEqual(a, b *Execution, t rat.Rat) error {
	if a.N() != b.N() {
		return fmt.Errorf("trace: node counts differ: %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		na, nb := a.countBefore(i, t), b.countBefore(i, t)
		if na != nb {
			return fmt.Errorf("trace: node %d has %d vs %d actions before %s", i, na, nb, t)
		}
		// Walk both filtered sequences in step; equal counts keep q in range.
		av, bv := a.PerNode[i], b.PerNode[i]
		k, q := 0, 0
		for _, x := range av {
			ax := &a.Actions[x]
			if !ax.Real.LessEq(t) {
				continue
			}
			for !b.Actions[bv[q]].Real.LessEq(t) {
				q++
			}
			bx := &b.Actions[bv[q]]
			q++
			if !sameObservation(ax, bx) || !ax.Real.Equal(bx.Real) {
				return fmt.Errorf("trace: node %d action %d differs before %s:\n  a: %s @%s\n  b: %s @%s",
					i, k, t, ax.observation(), ax.Real, bx.observation(), bx.Real)
			}
			k++
		}
	}
	return nil
}

// countBefore returns how many of node i's actions occur at real time ≤ t.
func (e *Execution) countBefore(i int, t rat.Rat) int {
	n := 0
	for _, x := range e.PerNode[i] {
		if e.Actions[x].Real.LessEq(t) {
			n++
		}
	}
	return n
}
