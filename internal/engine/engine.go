// Package engine is the incremental discrete-event simulation core for
// networks of timed automata with drifting hardware clocks, following the
// model of Fan & Lynch (PODC 2004), §3.
//
// An Engine is constructed once and then driven step by step: Step dispatches
// the single next event, RunUntil(t) dispatches everything through real time
// t, and RunFor(r) extends the covered horizon by r. Consumers observe the
// run through the Observer interface instead of receiving a buffered trace,
// so metrics can be computed online in memory independent of event count,
// schedules can be perturbed between phases of a run, and a run can stop
// early the moment a property of interest is violated.
//
// Each node runs a Node automaton that can observe only its hardware-clock
// readings and received messages — never real time. The adversary supplies
// each node's hardware rate schedule (see internal/clock) and chooses every
// message's delay within [0, d(from,to)].
//
// Engine state is forkable: Fork returns an independent engine at the exact
// same point of the run (deep-cloned event queue and per-node state via the
// Protocol.CloneState contract), SetAdversary rebinds a fork's delay
// adversary, and SwapSchedule replaces a node's rate schedule from the
// current instant on, so a shared execution prefix is simulated once and
// branched. That is the structure of the paper's constructions (perturb a
// base execution, keep the prefix indistinguishable): the Main Theorem
// (internal/lowerbound) resumes each round from a fork of the round before,
// swapping in the new round's schedules and delay script where they start
// to differ. It is also the engine of the prefix-cached worst-case search
// in internal/search.
//
// Determinism: events are ordered by (real time, kind, destination node,
// peer, per-pair message sequence / timer id, scheduling sequence). Two runs
// with the same configuration produce identical event streams, and —
// crucially for the lower-bound constructions — per-node event order is
// invariant under the per-node monotone time remappings used by the Add Skew
// and Bounded Increase lemmas, because ties are broken by node-visible keys
// rather than by wall-clock accidents.
//
// # Optional extensions
//
// Beyond Protocol, Node, Adversary and Observer, the engine type-asserts
// nine optional interfaces. Each keeps a behaviour or a pinned budget, and
// the benchmark's timing wrappers (gcsperf) forward all nine:
//
//   - CheckedAdversary (ScriptedAdversary, scenario.FaultAdversary): an
//     exhausted script fails the run with an error, not a panic.
//   - DropAdversary (FaultAdversary): message loss decided at send, after
//     sequence assignment; the scenario matrix's faults.
//   - AdversaryWrapper (ScriptedAdversary, FaultAdversary): hooks walk the
//     Fallback/Inner chain, so faults stay live inside replay scripts.
//   - StatefulAdversary (ScriptedAdversary, FaultAdversary,
//     lowerbound.AdaptiveScheduler): Fork clones adversary state.
//   - DenomHinter (Fraction-, Hash-, Scripted- and FaultAdversary,
//     AdaptiveScheduler): the delay grid fixed-lane detection needs.
//   - FixedLaneAdopter (core.SkewTracker): tracker pair state in ticks on
//     fixed-lane runs. With the tracker kept on rat values, gcsperf stream
//     took 6.04 s instead of 1.37 s (fastest pass, medians of 3).
//   - BulkCloneProtocol (gradient, LLW): slab clones hold a fork of a
//     warmed 33-node gradient line to 9 allocations at any width.
//   - ClockObserver and HorizonObserver (core.SkewTracker,
//     core.ValidityTracker, Funcs): the declaration stream and the exact
//     horizon close-out that make online metrics equal the post-hoc ones.
//     trace.Recorder is a ClockObserver too: it keeps the declaration
//     history, which the engine does not.
//
// An adversary implementing an observer interface is also fed the event
// stream of every engine it is bound to (AdaptiveScheduler).
//
// # What the engine-side tick lane is worth
//
// The fixed lane has two halves: the engine's own (tick queue keys, the
// compiled FixedSchedules, tick inversion in Fork and SwapSchedule) and the
// tracker's (FixedLaneAdopter). The engine half was measured alone with a
// switch that handed the detected scale only to AdoptFixedLane, so the
// engine ran on rat values while the tracker stayed on ticks. Runs were
// `gcsperf --seconds 10 --trace 0`, alternating pairs on a shared 2-core
// Xeon host; medians of pass_s, ticks [q1, q3] → engine on rat:
//
//   - search, 10 pairs: 1.78 s [1.74, 1.85] → 1.96 s (+10.2%, slower in 9
//     of 10). The gap is wider than the interquartile range.
//   - stream, 10 pairs: 2.50 s [2.44, 2.61] → 2.59 s (+3.3%, slower in 6 of
//     10), inside the interquartile range. An earlier set of 5 pairs had
//     read 2.70 → 3.16 s (+17%, slower in all 5).
//   - alloc_mb moved by less than 0.04% on both, and every run matched
//     its goldens.
//
// Search pays for the engine half, so it stays.
package engine

import (
	"errors"
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Message is the payload of a simulated message. MsgString must be a
// canonical, value-determined encoding: trace equivalence compares messages
// by this string, so two payloads with equal meaning must produce equal
// strings.
type Message interface {
	MsgString() string
}

// Node is one timed automaton. Implementations must be deterministic
// functions of the observations delivered through Runtime (hardware
// readings, messages); they must not consult real time, randomness, or
// global state.
type Node interface {
	// Init is called once at real time 0.
	Init(rt *Runtime)
	// OnTimer is called when a timer set via SetTimerAtHW fires.
	OnTimer(rt *Runtime, timerID int)
	// OnMessage is called when a message arrives.
	OnMessage(rt *Runtime, from int, msg Message)
}

// Protocol instantiates per-node automata.
type Protocol interface {
	Name() string
	// NewNode creates the automaton for node id. Static environment data is
	// available through the Runtime during callbacks.
	NewNode(id int) Node
	// CloneState returns an independent copy of a node automaton previously
	// created by this protocol's NewNode, carrying all of its mutable state:
	// after the call, driving the clone and the original from identical
	// engine states must produce identical behavior, and mutating one must
	// never affect the other. Stateless nodes (and value-type nodes) may be
	// returned as-is. Engine.Fork relies on this contract to duplicate
	// per-node state when a run is branched mid-execution.
	CloneState(node Node) Node
}

// BulkCloneProtocol is an optional Protocol extension for forking: CloneStates
// clones every node automaton in one call, so the protocol can slab-allocate
// the clones instead of paying one allocation per node. Engine.Fork prefers
// it over per-node CloneState when implemented. The contract is CloneState's,
// element-wise: out[i] must be an independent, non-nil clone of nodes[i].
type BulkCloneProtocol interface {
	CloneStates(nodes []Node) []Node
}

// Adversary chooses message delays. Delay must return a value in
// [0, bound]; the engine validates and fails the run otherwise.
type Adversary interface {
	Delay(from, to int, seq uint64, sendReal rat.Rat, bound rat.Rat) rat.Rat
}

// Config fully describes a batch run for Run.
type Config struct {
	Net       *network.Network
	Schedules []*clock.Schedule // one per node
	Adversary Adversary
	Protocol  Protocol
	Duration  rat.Rat
	Rho       rat.Rat // drift bound ρ; exposed to algorithms, validates schedules
	// SizeHint is the Size Run's recorder reserves up front (see
	// trace.Recorder.Reserve), typically the Size of the execution this run
	// replays. It sets capacities only: results never depend on it, and the
	// zero Size means no hint.
	SizeHint trace.Size
}

// Engine is an incremental simulation: an event queue over a fixed network,
// protocol, adversary, and set of hardware schedules, driven by Step,
// RunUntil, and RunFor, and observed through attached Observers.
type Engine struct {
	net    *network.Network
	scheds []*clock.Schedule
	adv    Adversary
	proto  Protocol
	rho    rat.Rat

	obs        []Observer
	clockObs   []ClockObserver
	horizonObs []HorizonObserver

	// Adversary feedback hooks (see stateful.go): when the adversary
	// observes the run, it is notified of each event before the regular
	// observers, through these dedicated fields rather than the observer
	// lists, so SetAdversary can rebind them without disturbing attached
	// metrics.
	advObs        Observer
	advClockObs   ClockObserver
	advHorizonObs HorizonObserver
	// advDrop is the adversary chain's fault layer (resolved through
	// AdversaryWrapper.Unwrap by bindAdversary, nil when no layer drops):
	// consulted once per send, before the delay decision.
	advDrop DropAdversary

	queue    eventQueue
	seq      uint64
	pairSeq  []uint64 // per-(from,to) message counters, indexed from*n+to
	runtimes []Runtime
	nodes    []Node

	now     rat.Rat // real time of the last dispatched event
	horizon rat.Rat // time through which the run is complete
	steps   uint64  // dispatched event count
	err     error

	// Fixed-point lane (see lane.go): scale > 0 means the run landed on a
	// common tick grid at construction and the hot path computes event keys,
	// clock readings, and clock inversions on int64 ticks, value-by-value
	// falling back to rat. scale is set once, in New. fscheds (one compiled
	// schedule per node, nil where it did not compile) is immutable and
	// shared with forks.
	lane      Lane
	scale     int64
	fscheds   []*clock.FixedSchedule
	nowTick   int64 // e.now in ticks; valid iff nowTickOK
	nowTickOK bool

	// met is the optional instrument set (see metrics.go). Nil-checked on
	// the hot path: an uninstrumented engine pays one predictable branch.
	met *Metrics
}

// Option configures an Engine under construction.
type Option func(*Engine)

// WithProtocol sets the protocol instantiating per-node automata
// (required).
func WithProtocol(p Protocol) Option { return func(e *Engine) { e.proto = p } }

// WithAdversary sets the delay adversary. Default: Midpoint().
func WithAdversary(a Adversary) Option { return func(e *Engine) { e.adv = a } }

// WithSchedules sets the per-node hardware rate schedules. Default: every
// node runs at constant rate 1.
func WithSchedules(scheds []*clock.Schedule) Option {
	return func(e *Engine) { e.scheds = scheds }
}

// WithRho sets the drift bound ρ ∈ [0, 1); schedules are validated against
// it. Default: 0 (which admits only rate-1 schedules).
func WithRho(rho rat.Rat) Option { return func(e *Engine) { e.rho = rho } }

// WithObservers attaches observers at construction, before any event is
// dispatched. Equivalent to calling Observe before the first Step.
func WithObservers(obs ...Observer) Option {
	return func(e *Engine) { e.Observe(obs...) }
}

// New builds an Engine over net and seeds every node's init event at real
// time 0. Nothing runs until the engine is driven with Step, RunUntil, or
// RunFor.
func New(net *network.Network, opts ...Option) (*Engine, error) {
	if net == nil {
		return nil, errors.New("engine: nil network")
	}
	e := &Engine{net: net}
	for _, opt := range opts {
		opt(e)
	}
	n := net.N()
	if e.scheds == nil {
		e.scheds = make([]*clock.Schedule, n)
		for i := range e.scheds {
			e.scheds[i] = clock.Constant(rat.FromInt(1))
		}
	}
	if len(e.scheds) != n {
		return nil, fmt.Errorf("engine: %d schedules for %d nodes", len(e.scheds), n)
	}
	if e.adv == nil {
		e.adv = Midpoint()
	}
	e.bindAdversary(e.adv)
	if e.proto == nil {
		return nil, errors.New("engine: nil protocol (use WithProtocol)")
	}
	if e.rho.Sign() < 0 || e.rho.GreaterEq(rat.FromInt(1)) {
		return nil, fmt.Errorf("engine: drift ρ=%s outside [0,1)", e.rho)
	}
	for i, s := range e.scheds {
		if s == nil {
			return nil, fmt.Errorf("engine: nil schedule for node %d", i)
		}
		if err := s.ValidateDrift(e.rho); err != nil {
			return nil, fmt.Errorf("engine: node %d: %w", i, err)
		}
	}
	e.pairSeq = make([]uint64, n*n)
	e.runtimes = make([]Runtime, n)
	e.nodes = make([]Node, n)
	for i := 0; i < n; i++ {
		// Default logical clock L = H until the node declares otherwise.
		e.runtimes[i] = Runtime{eng: e, id: i, decl: trace.StartDecl(i)}
		e.nodes[i] = e.proto.NewNode(i)
	}
	e.detectLane()
	if e.met != nil {
		if e.scale > 0 {
			e.met.FixedLaneRuns.Inc()
		} else {
			e.met.RatLaneRuns.Inc()
		}
	}
	// Observers attached via WithObservers ran before lane detection; hand
	// them the detected scale now.
	for _, o := range e.obs {
		if a, ok := o.(FixedLaneAdopter); ok {
			a.AdoptFixedLane(e.scale)
		}
	}
	for i := 0; i < n; i++ {
		idx := e.queue.alloc()
		// Init events carry their hardware reading: H(0) = 0 by the Schedule
		// contract. Their tick key is exact whenever the lane is on.
		e.queue.slab[idx] = event{kind: trace.KindInit, node: i, from: -1, seq: e.nextSeq(),
			tickOK: e.nowTickOK, hw: rat.Rat{}}
		e.queue.push(idx)
	}
	return e, nil
}

// Observe attaches observers to the event stream. Observers attached before
// the first Step see the complete run; observers attached mid-run see events
// from that point on. An observer implementing FixedLaneAdopter is handed the
// engine's detected tick scale (0 on the rat lane) so it can mirror its own
// state onto the grid; adoption never changes results, only arithmetic.
func (e *Engine) Observe(obs ...Observer) {
	for _, o := range obs {
		if o == nil {
			continue
		}
		e.obs = append(e.obs, o)
		if c, ok := o.(ClockObserver); ok {
			e.clockObs = append(e.clockObs, c)
		}
		if h, ok := o.(HorizonObserver); ok {
			e.horizonObs = append(e.horizonObs, h)
		}
		if a, ok := o.(FixedLaneAdopter); ok {
			a.AdoptFixedLane(e.scale)
		}
	}
}

// N returns the number of nodes.
func (e *Engine) N() int { return e.net.N() }

// Net returns the network.
func (e *Engine) Net() *network.Network { return e.net }

// Schedules returns the per-node hardware schedules (shared, immutable).
func (e *Engine) Schedules() []*clock.Schedule { return e.scheds }

// Adversary returns the delay adversary currently bound to the engine. For
// a fork of an engine with a stateful adversary this is the fork's own
// clone, carrying the decision state accumulated up to the fork point —
// which is how the prefix-cached search rebinds a fork's script while
// keeping the tail adversary's state.
func (e *Engine) Adversary() Adversary { return e.adv }

// Now returns the real time of the last dispatched event.
func (e *Engine) Now() rat.Rat { return e.now }

// Horizon returns the real time the run has reached. After RunUntil(t) or
// RunFor it is t, and the run is complete through it: no pending event at
// time <= Horizon remains undispatched. Otherwise, on a new engine or after
// Step, it is the time of the latest dispatched event (0 before any), and
// other events at that instant may still be pending; RunUntil(Horizon())
// completes the instant.
func (e *Engine) Horizon() rat.Rat { return e.horizon }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// Err returns the sticky error that failed the run, if any.
func (e *Engine) Err() error { return e.err }

// Step dispatches the single next pending event, advancing the horizon to
// its time. It returns false when the queue is empty (every node is idle and
// no messages are in flight). After an error the engine is poisoned: Step
// keeps returning the same error.
//
// Steady-state stepping is allocation-free on the engine's side: the
// dispatched event's slab slot is recycled through the queue's free list, so
// the only allocations per step are whatever the node callbacks themselves
// perform (message payloads, protocol state).
func (e *Engine) Step() (bool, error) {
	if e.err != nil {
		return false, e.err
	}
	if e.queue.Len() == 0 {
		return false, nil
	}
	idx := e.queue.pop()
	ev := e.queue.slab[idx] // copy out: the slot is reusable during dispatch
	e.queue.release(idx)
	e.dispatch(&ev)
	if ev.time.Greater(e.horizon) {
		e.horizon = ev.time
	}
	if e.err != nil {
		return false, e.err
	}
	return true, nil
}

// RunUntil dispatches every pending event with time <= t, in deterministic
// order, then advances the horizon to t and notifies HorizonObservers. t
// must not precede the current horizon.
func (e *Engine) RunUntil(t rat.Rat) error {
	if e.err != nil {
		return e.err
	}
	if t.Less(e.horizon) {
		return fmt.Errorf("engine: RunUntil(%s) before horizon %s", t, e.horizon)
	}
	for e.queue.Len() > 0 {
		if e.queue.slab[e.queue.top()].time.Greater(t) {
			break
		}
		idx := e.queue.pop()
		ev := e.queue.slab[idx] // copy out: the slot is reusable during dispatch
		e.queue.release(idx)
		e.dispatch(&ev)
		if e.err != nil {
			return e.err
		}
	}
	e.horizon = t
	if e.advHorizonObs != nil {
		e.advHorizonObs.OnHorizon(t)
	}
	for _, h := range e.horizonObs {
		h.OnHorizon(t)
	}
	return nil
}

// RunFor extends the covered horizon by r > 0.
func (e *Engine) RunFor(r rat.Rat) error {
	if r.Sign() <= 0 {
		return fmt.Errorf("engine: non-positive RunFor duration %s", r)
	}
	return e.RunUntil(e.horizon.Add(r))
}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) emitAction(a trace.Action) {
	if e.advObs != nil {
		e.advObs.OnAction(a)
	}
	for _, o := range e.obs {
		o.OnAction(a)
	}
}

// observed reports whether anything listens to the event stream: attached
// observers or the adversary's feedback hook. When nothing does, dispatch
// skips building delivery records and actions entirely (payload strings
// included).
func (e *Engine) observed() bool { return e.advObs != nil || len(e.obs) > 0 }

func (e *Engine) dispatch(ev *event) {
	e.now = ev.time
	e.nowTick, e.nowTickOK = ev.tick, ev.tickOK
	e.steps++
	if e.met != nil {
		e.met.Steps.Inc()
	}
	rt := &e.runtimes[ev.node]
	// Every event carries the destination's hardware reading, computed once
	// at scheduling time and carried across forks — branches sharing a
	// prefix never re-derive a queued event's reading.
	hw := ev.hw
	rt.hwNow = hw
	switch ev.kind {
	case trace.KindInit:
		e.emitAction(trace.Action{Node: ev.node, Kind: trace.KindInit, Real: ev.time, HW: hw, Peer: -1})
		e.nodes[ev.node].Init(rt)
	case trace.KindTimer:
		e.emitAction(trace.Action{Node: ev.node, Kind: trace.KindTimer, Real: ev.time, HW: hw, Peer: -1, TimerID: ev.timerID})
		e.nodes[ev.node].OnTimer(rt, ev.timerID)
	case trace.KindRecv:
		if e.observed() {
			// The canonical payload string was cached at Send; recompute it
			// only when the message was sent while the run was unobserved and
			// an observer attached mid-flight.
			payload := ev.payStr
			if !ev.hasStr {
				payload = ev.payload.MsgString()
			}
			rec := trace.MsgRecord{
				Key:      trace.MsgKey{From: ev.from, To: ev.node, Seq: ev.msgSeq},
				SendReal: ev.sendReal,
				RecvReal: ev.time,
				Delay:    ev.delay,
			}
			if e.advObs != nil {
				e.advObs.OnDeliver(rec)
			}
			for _, o := range e.obs {
				o.OnDeliver(rec)
			}
			e.emitAction(trace.Action{Node: ev.node, Kind: trace.KindRecv, Real: ev.time, HW: hw,
				Peer: ev.from, MsgSeq: ev.msgSeq, Payload: payload})
		}
		e.nodes[ev.node].OnMessage(rt, ev.from, ev.payload)
	default:
		e.fail(fmt.Errorf("engine: unknown event kind %v", ev.kind))
	}
}

// Execution returns the run through the current horizon as a complete
// Execution, compiled by rec from what it recorded (see
// trace.Recorder.Execution). The run must be complete through the horizon,
// since the Execution reads which messages were delivered off it: after
// Step, an event still pending at the horizon's instant makes Execution
// return an error, and RunUntil(Horizon()) completes the instant. rec must
// have seen every event the engine dispatched: attached (via Observe or
// WithObservers) before the first Step, or, on a fork, the Clone of such a
// recorder taken at the fork point. Execution returns an error for any
// other recorder, whose clocks would be silently incomplete.
func (e *Engine) Execution(rec *trace.Recorder) (*trace.Execution, error) {
	if e.err != nil {
		return nil, e.err
	}
	if next, ok := e.NextEventTime(); ok && next.LessEq(e.horizon) {
		return nil, fmt.Errorf("engine: the run is not complete at its horizon %s: an event is still pending there (call RunUntil(Horizon()) first)", e.horizon)
	}
	if seen := rec.Dispatched(); seen != e.steps {
		return nil, fmt.Errorf("engine: recorder saw %d of %d dispatched events (attach it before the first Step, and give a fork the Clone of the trunk's recorder)", seen, e.steps)
	}
	return rec.Execution(e.net, e.scheds, e.horizon)
}

// Run executes a batch configuration and returns its recorded trace: it
// builds an Engine, attaches a trace.Recorder that reserves cfg.SizeHint,
// drives the run to cfg.Duration, and compiles the Execution.
func Run(cfg Config) (*trace.Execution, error) {
	if cfg.Net == nil {
		return nil, errors.New("engine: nil network")
	}
	if len(cfg.Schedules) != cfg.Net.N() {
		return nil, fmt.Errorf("engine: %d schedules for %d nodes", len(cfg.Schedules), cfg.Net.N())
	}
	if cfg.Adversary == nil {
		return nil, errors.New("engine: nil adversary")
	}
	if cfg.Duration.Sign() <= 0 {
		return nil, fmt.Errorf("engine: non-positive duration %s", cfg.Duration)
	}
	eng, err := New(cfg.Net,
		WithProtocol(cfg.Protocol),
		WithAdversary(cfg.Adversary),
		WithSchedules(cfg.Schedules),
		WithRho(cfg.Rho),
	)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(cfg.Net.N())
	rec.Reserve(cfg.SizeHint)
	eng.Observe(rec)
	if err := eng.RunUntil(cfg.Duration); err != nil {
		return nil, err
	}
	return eng.Execution(rec)
}
