package main

import (
	"time"

	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// layer names one span kind the traced run records. Spans sit at the
// benchmark's own calls into a module's public functions, plus the three
// value wrappers (protocol, adversary, observer) the benchmark hands in.
type layer int

const (
	lEngineNew layer = iota
	lEngineRun
	lAdversary
	lHandler
	lTracker
	lReadout
	lSearch
	lSeed
	lMainTheorem
	lAddSkew
	lGenerate
	lCell
	numLayers
)

// frame is one open span: its layer, start, and the time its direct
// children covered.
type frame struct {
	l     layer
	start int64
	child int64
}

// tracer accumulates span totals, self times and call counts per layer. It
// keeps an explicit span stack, so a span's self time is its duration minus
// the part its direct children covered. It is not safe for concurrent use:
// the benchmark evaluates with one worker, so at most one goroutine runs
// traced code at a time, and the search's worker semaphore orders them.
type tracer struct {
	t0    time.Time
	stack []frame
	total [numLayers]int64
	self  [numLayers]int64
	calls [numLayers]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := t.now() - f.start
	t.total[f.l] += d
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
}

// span runs f inside a span of layer l; a nil tracer just runs f.
func (t *tracer) span(l layer, f func()) {
	if t == nil {
		f()
		return
	}
	t.begin(l)
	f()
	t.end()
}

// The wrappers below time a value's methods while keeping the engine's view
// of it unchanged. Every optional interface the engine probes is implemented
// and forwarded, and where the wrapped value lacks one the wrapper answers
// exactly what the engine does on its absence: DelayDenom 0 (no hint),
// DelayChecked without an error, CloneAdversary as CloneAdversaryState
// would, no-op observer extensions, and CloneStates as per-node CloneState.
// Unwrap hands the engine the wrapped value for feedback and drop routing.
// So a traced run stays on the same lane with the same fork cost, and its
// exact counts equal the untraced run's.

// timedProtocol wraps a protocol so every node callback is a handler span.
type timedProtocol struct {
	inner engine.Protocol
	tr    *tracer
}

var _ engine.BulkCloneProtocol = (*timedProtocol)(nil)

func wrapProtocol(p engine.Protocol, tr *tracer) engine.Protocol {
	if tr == nil {
		return p
	}
	return &timedProtocol{inner: p, tr: tr}
}

func (p *timedProtocol) Name() string { return p.inner.Name() }

func (p *timedProtocol) NewNode(id int) engine.Node {
	return &timedNode{inner: p.inner.NewNode(id), tr: p.tr}
}

func (p *timedProtocol) CloneState(n engine.Node) engine.Node {
	return &timedNode{inner: p.inner.CloneState(n.(*timedNode).inner), tr: p.tr}
}

// CloneStates forwards to the wrapped protocol's bulk clone when it has one.
func (p *timedProtocol) CloneStates(nodes []engine.Node) []engine.Node {
	inner := make([]engine.Node, len(nodes))
	for i, n := range nodes {
		inner[i] = n.(*timedNode).inner
	}
	var clones []engine.Node
	if bc, ok := p.inner.(engine.BulkCloneProtocol); ok {
		clones = bc.CloneStates(inner)
	} else {
		clones = make([]engine.Node, len(inner))
		for i, n := range inner {
			clones[i] = p.inner.CloneState(n)
		}
	}
	slab := make([]timedNode, len(clones))
	out := make([]engine.Node, len(clones))
	for i, c := range clones {
		if c == nil {
			continue
		}
		slab[i] = timedNode{inner: c, tr: p.tr}
		out[i] = &slab[i]
	}
	return out
}

type timedNode struct {
	inner engine.Node
	tr    *tracer
}

func (n *timedNode) Init(rt *engine.Runtime) {
	n.tr.begin(lHandler)
	n.inner.Init(rt)
	n.tr.end()
}

func (n *timedNode) OnTimer(rt *engine.Runtime, id int) {
	n.tr.begin(lHandler)
	n.inner.OnTimer(rt, id)
	n.tr.end()
}

func (n *timedNode) OnMessage(rt *engine.Runtime, from int, msg engine.Message) {
	n.tr.begin(lHandler)
	n.inner.OnMessage(rt, from, msg)
	n.tr.end()
}

// timedAdversary wraps an adversary so every delay decision is a span.
type timedAdversary struct {
	inner engine.Adversary
	tr    *tracer
}

var (
	_ engine.CheckedAdversary  = (*timedAdversary)(nil)
	_ engine.StatefulAdversary = (*timedAdversary)(nil)
	_ engine.AdversaryWrapper  = (*timedAdversary)(nil)
	_ engine.DenomHinter       = (*timedAdversary)(nil)
)

func wrapAdversary(a engine.Adversary, tr *tracer) engine.Adversary {
	if tr == nil {
		return a
	}
	return &timedAdversary{inner: a, tr: tr}
}

func (a *timedAdversary) Delay(from, to int, seq uint64, sendReal, bound rat.Rat) rat.Rat {
	a.tr.begin(lAdversary)
	d := a.inner.Delay(from, to, seq, sendReal, bound)
	a.tr.end()
	return d
}

func (a *timedAdversary) DelayChecked(from, to int, seq uint64, sendReal, bound rat.Rat) (rat.Rat, error) {
	c, ok := a.inner.(engine.CheckedAdversary)
	if !ok {
		return a.Delay(from, to, seq, sendReal, bound), nil
	}
	a.tr.begin(lAdversary)
	d, err := c.DelayChecked(from, to, seq, sendReal, bound)
	a.tr.end()
	return d, err
}

func (a *timedAdversary) DelayDenom() int64 {
	if h, ok := a.inner.(engine.DenomHinter); ok {
		return h.DelayDenom()
	}
	return 0
}

func (a *timedAdversary) Unwrap() engine.Adversary { return a.inner }

func (a *timedAdversary) CloneAdversary() engine.Adversary {
	c, ok := engine.CloneAdversaryState(a.inner)
	if !ok {
		return nil
	}
	if _, stateful := a.inner.(engine.StatefulAdversary); !stateful {
		return a // stateless: CloneAdversaryState shares it too
	}
	return &timedAdversary{inner: c, tr: a.tr}
}

// timedObserver wraps an online tracker so every callback is a tracker span.
type timedObserver struct {
	inner   engine.Observer
	clock   engine.ClockObserver
	horizon engine.HorizonObserver
	adopter engine.FixedLaneAdopter
	tr      *tracer
}

var (
	_ engine.ClockObserver    = (*timedObserver)(nil)
	_ engine.HorizonObserver  = (*timedObserver)(nil)
	_ engine.FixedLaneAdopter = (*timedObserver)(nil)
)

func wrapObserver(o engine.Observer, tr *tracer) engine.Observer {
	if tr == nil {
		return o
	}
	w := &timedObserver{inner: o, tr: tr}
	w.clock, _ = o.(engine.ClockObserver)
	w.horizon, _ = o.(engine.HorizonObserver)
	w.adopter, _ = o.(engine.FixedLaneAdopter)
	return w
}

func (o *timedObserver) OnAction(a trace.Action) {
	o.tr.begin(lTracker)
	o.inner.OnAction(a)
	o.tr.end()
}

func (o *timedObserver) OnSend(rec trace.MsgRecord) {
	o.tr.begin(lTracker)
	o.inner.OnSend(rec)
	o.tr.end()
}

func (o *timedObserver) OnDeliver(rec trace.MsgRecord) {
	o.tr.begin(lTracker)
	o.inner.OnDeliver(rec)
	o.tr.end()
}

func (o *timedObserver) OnDeclare(d trace.Decl) {
	if o.clock == nil {
		return
	}
	o.tr.begin(lTracker)
	o.clock.OnDeclare(d)
	o.tr.end()
}

func (o *timedObserver) OnHorizon(t rat.Rat) {
	if o.horizon == nil {
		return
	}
	o.tr.begin(lTracker)
	o.horizon.OnHorizon(t)
	o.tr.end()
}

func (o *timedObserver) AdoptFixedLane(scale int64) {
	if o.adopter != nil {
		o.adopter.AdoptFixedLane(scale)
	}
}
