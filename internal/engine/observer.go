package engine

import (
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// Observer receives the event stream of a running Engine. Consumers
// subscribe to the stream instead of receiving a buffered trace, which is
// what lets metrics run online with no trace retention.
//
// Callbacks fire synchronously during Step/RunUntil/RunFor, in the exact
// deterministic order the simulator processes events:
//
//   - OnSend fires when a node transmits, after the adversary fixed the
//     delay (the record's Delivered field is false);
//   - OnDeliver fires when a message arrives, before the receiving node's
//     callback runs (Delivered is true and RecvReal is set);
//   - OnAction fires for every recorded node action in trace order. For
//     dispatched events (init, timer, recv) it fires before the node's own
//     callback runs; for send actions it fires at transmit time, from
//     inside the sending node's still-executing callback, right after the
//     matching OnSend.
//
// Observers must not retain or mutate the Engine from inside callbacks.
type Observer interface {
	OnAction(a trace.Action)
	OnSend(rec trace.MsgRecord)
	OnDeliver(rec trace.MsgRecord)
}

// ClockObserver is an optional Observer extension: observers that also
// implement it are notified of every logical-clock declaration a node makes
// (Runtime.SetLogical). Every node starts with the implicit identity
// declaration L = H (trace.StartDecl), which is not announced. Online skew
// and validity trackers, and trace.Recorder, are ClockObservers.
type ClockObserver interface {
	OnDeclare(d trace.Decl)
}

// HorizonObserver is an optional Observer extension: OnHorizon(t) fires when
// RunUntil or RunFor completes a horizon, guaranteeing no further events at
// times <= t. Online trackers use it to close out interval maxima exactly at
// the horizon without the caller flushing by hand.
type HorizonObserver interface {
	OnHorizon(t rat.Rat)
}

// Funcs adapts plain functions to the observer interfaces; nil fields are
// ignored. It implements Observer, ClockObserver, and HorizonObserver, which
// makes ad-hoc stream consumers (counters, loggers, early-stop probes)
// one-liners.
type Funcs struct {
	Action  func(a trace.Action)
	Send    func(rec trace.MsgRecord)
	Deliver func(rec trace.MsgRecord)
	Declare func(d trace.Decl)
	Horizon func(t rat.Rat)
}

// OnAction implements Observer.
func (f Funcs) OnAction(a trace.Action) {
	if f.Action != nil {
		f.Action(a)
	}
}

// OnSend implements Observer.
func (f Funcs) OnSend(rec trace.MsgRecord) {
	if f.Send != nil {
		f.Send(rec)
	}
}

// OnDeliver implements Observer.
func (f Funcs) OnDeliver(rec trace.MsgRecord) {
	if f.Deliver != nil {
		f.Deliver(rec)
	}
}

// OnDeclare implements ClockObserver.
func (f Funcs) OnDeclare(d trace.Decl) {
	if f.Declare != nil {
		f.Declare(d)
	}
}

// OnHorizon implements HorizonObserver.
func (f Funcs) OnHorizon(t rat.Rat) {
	if f.Horizon != nil {
		f.Horizon(t)
	}
}
