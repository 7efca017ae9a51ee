package engine

import (
	"fmt"

	"gcs/internal/fixed"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Runtime is a node's interface to the simulated world during callbacks. It
// deliberately exposes no real-time information: everything a node can learn
// is its hardware clock, the static network parameters, and its messages.
//
// A Runtime holds only what the run needs next: the node's latest hardware
// reading and its current logical-clock declaration. The declaration history
// is streamed to ClockObservers; a trace.Recorder keeps it.
type Runtime struct {
	eng   *Engine
	id    int
	hwNow rat.Rat
	decl  trace.Decl // the declaration in effect
}

// ID returns this node's index.
func (rt *Runtime) ID() int { return rt.id }

// N returns the number of nodes.
func (rt *Runtime) N() int { return rt.eng.net.N() }

// Neighbors returns this node's gossip neighbors. The caller must not modify
// the returned slice.
func (rt *Runtime) Neighbors() []int { return rt.eng.net.Neighbors(rt.id) }

// Dist returns the message delay uncertainty to node j (static knowledge in
// the model).
func (rt *Runtime) Dist(j int) rat.Rat { return rt.eng.net.Dist(rt.id, j) }

// Rho returns the hardware drift bound ρ (static knowledge in the model).
func (rt *Runtime) Rho() rat.Rat { return rt.eng.rho }

// HW returns the node's current hardware-clock reading.
func (rt *Runtime) HW() rat.Rat { return rt.hwNow }

// Logical returns the node's current logical-clock value per its latest
// declaration.
func (rt *Runtime) Logical() rat.Rat { return rt.decl.ValueAt(rt.hwNow) }

// LogicalMult returns the multiplier of the latest declaration.
func (rt *Runtime) LogicalMult() rat.Rat { return rt.decl.Mult }

// SetLogical declares the node's logical clock: from the current hardware
// reading H₀ on, L(H) = value + mult·(H − H₀). mult must be >= 0.
// Requirement 1 of the paper (validity) additionally demands effective rate
// >= 1/2 and no downward jumps; the validity checkers in internal/core
// verify that (online or post hoc) rather than restricting algorithms a
// priori.
func (rt *Runtime) SetLogical(value, mult rat.Rat) {
	e := rt.eng
	if mult.Sign() < 0 {
		e.fail(fmt.Errorf("engine: node %d declared negative logical multiplier %s", rt.id, mult))
		return
	}
	d := trace.Decl{Node: rt.id, Real: e.now, HW0: rt.hwNow, Value: value, Mult: mult}
	rt.decl = d
	if e.advClockObs != nil {
		e.advClockObs.OnDeclare(d)
	}
	for _, o := range e.clockObs {
		o.OnDeclare(d)
	}
}

// Send transmits msg to node `to`. The adversary assigns the delay.
func (rt *Runtime) Send(to int, msg Message) {
	e := rt.eng
	if to < 0 || to >= rt.N() || to == rt.id {
		e.fail(fmt.Errorf("engine: node %d sends to invalid node %d", rt.id, to))
		return
	}
	if msg == nil {
		e.fail(fmt.Errorf("engine: node %d sends nil message", rt.id))
		return
	}
	pair := rt.id*rt.N() + to
	seq := e.pairSeq[pair]
	e.pairSeq[pair] = seq + 1
	bound := e.net.Dist(rt.id, to)
	if e.advDrop != nil && e.advDrop.Drop(rt.id, to, seq, e.now) {
		// A faulted message consumes its sequence number but is never
		// priced or delivered. The Send action is still emitted — the
		// loss is invisible to the sender — and the ledger records the
		// message as Dropped so checkers and decision logs can tell a
		// fault from an undelivered in-flight message.
		if e.met != nil {
			e.met.Dropped.Inc()
		}
		if e.observed() {
			rec := trace.MsgRecord{
				Key:      trace.MsgKey{From: rt.id, To: to, Seq: seq},
				SendReal: e.now,
				Dropped:  true,
			}
			if e.advObs != nil {
				e.advObs.OnSend(rec)
			}
			for _, o := range e.obs {
				o.OnSend(rec)
			}
			e.emitAction(trace.Action{Node: rt.id, Kind: trace.KindSend, Real: e.now,
				HW: rt.hwNow, Peer: to, MsgSeq: seq, Payload: msg.MsgString()})
		}
		return
	}
	var delay rat.Rat
	if ca, ok := e.adv.(CheckedAdversary); ok {
		var derr error
		delay, derr = ca.DelayChecked(rt.id, to, seq, e.now, bound)
		if derr != nil {
			e.fail(derr)
			return
		}
	} else {
		delay = e.adv.Delay(rt.id, to, seq, e.now, bound)
	}
	if delay.Sign() < 0 || delay.Greater(bound) {
		e.fail(fmt.Errorf("engine: adversary delay %s for %d→%d (seq %d) outside [0, %s]",
			delay, rt.id, to, seq, bound))
		return
	}
	recv := e.now.Add(delay)
	// Fixed lane: the receive tick is now + delay in integers when the delay
	// lands on the grid; the recipient's hardware reading at that tick comes
	// from the compiled schedule. Every miss falls back to the rat lane for
	// that value alone.
	var recvTick int64
	recvTickOK := false
	if e.nowTickOK {
		if dt, ok := fixed.FromRat(delay, e.scale); ok {
			recvTick, recvTickOK = fixed.Add(e.nowTick, dt)
		}
		if !recvTickOK && e.met != nil {
			e.met.FixedFallbacks.Inc()
		}
	}
	var hwRecv rat.Rat
	hwOK := false
	if recvTickOK {
		if ht, ok := e.fscheds[to].HWTicks(recvTick); ok {
			hwRecv = fixed.ToRat(ht, e.scale)
			hwOK = true
		} else if e.met != nil {
			e.met.FixedFallbacks.Inc()
		}
	}
	if !hwOK {
		hwRecv = e.scheds[to].HW(recv)
	}
	var payload string
	hasStr := e.observed()
	if hasStr {
		// Canonicalize once: the Recv action at dispatch reuses this string
		// instead of calling MsgString a second time.
		payload = msg.MsgString()
		rec := trace.MsgRecord{
			Key:      trace.MsgKey{From: rt.id, To: to, Seq: seq},
			SendReal: e.now,
			Delay:    delay,
		}
		if e.advObs != nil {
			e.advObs.OnSend(rec)
		}
		for _, o := range e.obs {
			o.OnSend(rec)
		}
		e.emitAction(trace.Action{Node: rt.id, Kind: trace.KindSend, Real: e.now, HW: rt.hwNow,
			Peer: to, MsgSeq: seq, Payload: payload})
	}
	idx := e.queue.alloc()
	e.queue.slab[idx] = event{
		time:     recv,
		kind:     trace.KindRecv,
		node:     to,
		from:     rt.id,
		msgSeq:   seq,
		payload:  msg,
		payStr:   payload,
		hasStr:   hasStr,
		sendReal: e.now,
		delay:    delay,
		seq:      e.nextSeq(),
		tick:     recvTick,
		tickOK:   recvTickOK,
		hw:       hwRecv,
	}
	e.queue.push(idx)
}

// SetTimerAtHW schedules OnTimer(timerID) to fire when this node's hardware
// clock reads hw, which must be >= the current reading.
func (rt *Runtime) SetTimerAtHW(hw rat.Rat, timerID int) {
	e := rt.eng
	if hw.Less(rt.hwNow) {
		e.fail(fmt.Errorf("engine: node %d sets timer at hardware time %s < current %s", rt.id, hw, rt.hwNow))
		return
	}
	// Fixed lane: invert the compiled schedule in ticks. The rat lane owns
	// every miss and every error case (off-grid target, inexact division by
	// the rate numerator). Either way the event caches the target reading —
	// H(RealAt(hw)) = hw exactly, the clock being continuous and strictly
	// increasing — so dispatch never inverts or re-evaluates.
	var real rat.Rat
	var realTick int64
	tickOK := false
	if e.scale > 0 {
		if ht, ok := fixed.FromRat(hw, e.scale); ok {
			if tt, ok := e.fscheds[rt.id].RealAtTicks(ht); ok {
				realTick, tickOK = tt, true
				real = fixed.ToRat(tt, e.scale)
			}
		}
		if !tickOK && e.met != nil {
			e.met.FixedFallbacks.Inc()
		}
	}
	if !tickOK {
		var err error
		real, err = e.scheds[rt.id].RealAt(hw)
		if err != nil {
			e.fail(fmt.Errorf("engine: node %d timer: %w", rt.id, err))
			return
		}
	}
	idx := e.queue.alloc()
	e.queue.slab[idx] = event{
		time:    real,
		kind:    trace.KindTimer,
		node:    rt.id,
		from:    -1,
		timerID: timerID,
		seq:     e.nextSeq(),
		tick:    realTick,
		tickOK:  tickOK,
		hw:      hw,
		// The target reading, not a cache: SwapSchedule re-derives time and
		// tick from hw when the node's schedule changes under a queued timer.
		hwTarget: true,
	}
	e.queue.push(idx)
}
