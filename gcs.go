// Package gcs is a reproduction of Fan & Lynch, "Gradient Clock
// Synchronization" (PODC 2004): a deterministic discrete-event simulator for
// networks of drifting hardware clocks, a portfolio of clock synchronization
// algorithms, exact checkers for the paper's validity and gradient
// requirements, and executable versions of every lower-bound construction in
// the paper (the Ω(d) shift argument, the Add Skew lemma, the Bounded
// Increase lemma, the Ω(log D / log log D) main theorem, and the §2
// counterexample against max-based algorithms).
//
// # Model
//
// Following §3 of the paper, nodes are timed automata that observe only
// their hardware clocks and received messages. Hardware clock rates are
// adversary-chosen within [1−ρ, 1+ρ]; a message from i to j takes between 0
// and d(i,j) time ("distance" = delay uncertainty), with the adversary
// choosing the exact delay. Logical clocks must satisfy validity
// (L(t+r) − L(t) ≥ r/2) and, for an f-gradient algorithm,
// |L_i(t) − L_j(t)| ≤ f(d(i,j)) at all times.
//
// All simulated time is exact rational arithmetic: the lower-bound
// constructions rely on exact indistinguishability between executions, which
// floating point cannot provide.
//
// # Quickstart
//
// Simulation is incremental: build an Engine, attach observers, and drive
// it. Online trackers maintain the paper's skew metrics as the run streams
// by, in memory independent of event count — so networks and durations are
// limited by patience, not by trace size:
//
//	net, _ := gcs.Line(9)
//	scheds := gcs.ConstantSchedules(9, gcs.R(1))
//	eng, err := gcs.NewEngine(net,
//	    gcs.WithProtocol(gcs.Gradient(gcs.DefaultGradientParams())),
//	    gcs.WithAdversary(gcs.Midpoint()),
//	    gcs.WithSchedules(scheds),
//	    gcs.WithRho(gcs.Frac(1, 2)),
//	)
//	...
//	skew, _ := gcs.NewSkewTracker(net, scheds)
//	valid := gcs.NewValidityTracker(scheds)
//	eng.Observe(skew, valid)
//	if err := eng.RunUntil(gcs.R(50)); err != nil { ... }
//	fmt.Println(skew.Global().Skew, skew.Local().Skew, valid.Err())
//
// Step() drives one event at a time (early stopping, mid-run inspection),
// RunFor(r) extends the horizon incrementally, and any number of Observers
// can subscribe to the action/message/declaration stream.
//
// Engine state is forkable: Engine.Fork returns an independent engine at the
// exact same point of the run (deep-cloned event queue and per-node state,
// via the Protocol.CloneState contract), Engine.SetAdversary rebinds the
// fork's delay adversary, and the online trackers, Recorder, and DecisionLog
// all Clone so a branch's metrics continue seamlessly. Fork is what lets a
// shared execution prefix be simulated once and branched — the structure of
// the paper's constructions, and the engine of the prefix-cached worst-case
// search (see Search).
//
// Adversaries may be adaptive: one that implements Observer is fed the
// event stream of the run it is scheduling, and one that implements
// StatefulAdversary (CloneAdversary, mirroring Protocol.CloneState) is
// cloned by Fork so branches never share decision state. AdaptiveScheduler
// — the §2 counterexample scheduler in general online form — is the first
// such strategy; the E14 experiment compares it against the scripted beam
// search and the certified bounds.
//
// The batch API records everything and remains available — Run builds an
// Engine with a trace.Recorder attached and returns the completed
// *Execution for post-hoc analysis, which the lower-bound constructions
// need (they re-simulate and compare whole traces):
//
//	exec, err := gcs.Run(gcs.Config{
//	    Net:       net,
//	    Schedules: scheds,
//	    Adversary: gcs.Midpoint(),
//	    Protocol:  gcs.Gradient(gcs.DefaultGradientParams()),
//	    Duration:  gcs.R(50),
//	    Rho:       gcs.Frac(1, 2),
//	})
//	...
//	fmt.Println(gcs.GlobalSkew(exec).Skew)
//
// See the examples/ directory for runnable scenarios, cmd/gcssim -stream
// for the streaming driver, and cmd/gcsbench for the experiment harness
// that regenerates every figure-level result.
package gcs

import (
	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/lowerbound"
	"gcs/internal/network"
	"gcs/internal/plot"
	"gcs/internal/rat"
	"gcs/internal/scenario"
	"gcs/internal/search"
	"gcs/internal/trace"
	"gcs/internal/workload"
)

// Exact rational time.
type (
	// Rat is an exact rational number; all simulated time uses it.
	Rat = rat.Rat
)

// R returns the rational n/1.
func R(n int64) Rat { return rat.FromInt(n) }

// Frac returns the rational n/d (panics on d == 0; use for constants).
func Frac(n, d int64) Rat { return rat.MustFrac(n, d) }

// ParseRat parses "n", "n/d", or decimal notation.
func ParseRat(s string) (Rat, error) { return rat.Parse(s) }

// Topologies.
type (
	// Network is a set of nodes with pairwise delay-uncertainty distances
	// and a gossip adjacency.
	Network = network.Network
)

// Topology constructors (see internal/network for details).
var (
	Line            = network.Line
	TwoNode         = network.TwoNode
	Complete        = network.Complete
	Ring            = network.Ring
	Grid2D          = network.Grid2D
	Star            = network.Star
	RandomGeometric = network.RandomGeometric
	NewNetwork      = network.New
	// Seeded generator families for the scenario matrix: exact hop-count
	// distances, deterministic for a fixed seed, diameter scaling
	// independently of n.
	Torus               = network.Torus
	DRegular            = network.DRegular
	BarabasiAlbert      = network.BarabasiAlbert
	BoundedDegreeRandom = network.BoundedDegreeRandom
)

// Hardware clocks.
type (
	// Schedule is an immutable hardware-clock rate schedule.
	Schedule = clock.Schedule
	// RateSeg is one piecewise-constant rate segment.
	RateSeg = clock.RateSeg
)

// Clock constructors.
var (
	ConstantClock    = clock.Constant
	ClockFromRates   = clock.FromRates
	DiverseSchedules = clock.Diverse
)

// ConstantSchedules returns n identical constant-rate schedules.
func ConstantSchedules(n int, rate Rat) []*Schedule {
	out := make([]*Schedule, n)
	for i := range out {
		out[i] = clock.Constant(rate)
	}
	return out
}

// Simulation.
type (
	// Config fully describes a run.
	Config = engine.Config
	// Protocol instantiates per-node automata.
	Protocol = engine.Protocol
	// Node is one timed automaton.
	Node = engine.Node
	// Runtime is a node's interface to the simulated world.
	Runtime = engine.Runtime
	// Message is a payload with a canonical string form.
	Message = engine.Message
	// Adversary chooses message delays.
	Adversary = engine.Adversary
	// CheckedAdversary is an Adversary whose decision can fail with a
	// precise error (e.g. an exhausted script with no fallback).
	CheckedAdversary = engine.CheckedAdversary
	// StatefulAdversary is an Adversary carrying mutable decision state
	// (adaptive strategies): CloneAdversary mirrors Protocol.CloneState, so
	// Engine.Fork can branch a run without sharing adversary state. An
	// adversary that also implements Observer is attached to the event
	// stream of every engine it is bound to, automatically.
	StatefulAdversary = engine.StatefulAdversary
	// FractionAdversary delays every message by a fixed fraction of the
	// bound.
	FractionAdversary = engine.FractionAdversary
	// ScriptedAdversary replays exact per-message delays.
	ScriptedAdversary = engine.ScriptedAdversary
	// FuncAdversary adapts a function.
	FuncAdversary = engine.FuncAdversary
	// HashAdversary draws reproducible pseudo-random delays.
	HashAdversary = engine.HashAdversary
	// AdversaryWrapper is a decorator adversary exposing the adversary it
	// wraps (engine feedback and fault hooks walk the chain via Unwrap).
	AdversaryWrapper = engine.AdversaryWrapper
	// DropAdversary drops faulted messages before any delay is assigned.
	DropAdversary = engine.DropAdversary
	// FaultAdversary layers a deterministic FaultModel (crash windows,
	// hash loss, transient partitions, edge churn) over an inner delay
	// adversary; fork- and replay-safe by construction.
	FaultAdversary = scenario.FaultAdversary
	// FaultModel is the deterministic fault configuration itself.
	FaultModel = scenario.FaultModel
	// FaultWindow is a half-open real-time interval [From, To) used by
	// crash and partition faults.
	FaultWindow = scenario.Window
	// NetPartition is a transient cut: messages crossing Side during the
	// window are dropped.
	NetPartition = scenario.Partition
	// Scenario is one registered matrix cell; ScenarioReport its gated
	// result; ScenarioRunOptions the per-cell search budget.
	Scenario           = scenario.Scenario
	ScenarioReport     = scenario.Report
	ScenarioRunOptions = scenario.RunOptions
	// DriftProfile selects a scenario's base rate landscape.
	DriftProfile = scenario.DriftProfile
	// Execution is a completed, recorded run.
	Execution = trace.Execution
	// Action is one observable step at one node.
	Action = trace.Action
	// MsgKey identifies a message by (from, to, per-pair sequence).
	MsgKey = trace.MsgKey
	// MsgRecord is a message-ledger entry.
	MsgRecord = trace.MsgRecord
	// ActionKind classifies node actions in a trace.
	ActionKind = trace.Kind
)

// Action kinds.
const (
	KindInit  = trace.KindInit
	KindRecv  = trace.KindRecv
	KindTimer = trace.KindTimer
	KindSend  = trace.KindSend
)

// Streaming simulation engine (see internal/engine).
type (
	// Engine is the incremental simulation core: construct with NewEngine,
	// drive with Step / RunUntil / RunFor, observe with Observe.
	Engine = engine.Engine
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// Observer receives the action/message event stream of a running Engine.
	Observer = engine.Observer
	// ClockObserver additionally receives logical-clock declarations.
	ClockObserver = engine.ClockObserver
	// HorizonObserver is notified when RunUntil/RunFor complete a horizon.
	HorizonObserver = engine.HorizonObserver
	// ObserverFuncs adapts plain functions to the observer interfaces.
	ObserverFuncs = engine.Funcs
	// Decl is one logical-clock declaration, streamed to ClockObservers.
	Decl = trace.Decl
	// Recorder is the full-trace observer backing the batch Run path.
	Recorder = trace.Recorder
	// Lane selects the engine's arithmetic lane (LaneAuto detects the
	// fixed-point tick grid; LaneRat forces exact rationals everywhere).
	// Results are byte-identical either way — the lane is an execution
	// strategy, never a semantics knob.
	Lane = engine.Lane
)

// Arithmetic lanes.
const (
	LaneAuto = engine.LaneAuto
	LaneRat  = engine.LaneRat
)

// Engine constructors and options.
var (
	NewEngine     = engine.New
	WithProtocol  = engine.WithProtocol
	WithAdversary = engine.WithAdversary
	WithSchedules = engine.WithSchedules
	WithRho       = engine.WithRho
	WithObservers = engine.WithObservers
	WithLane      = engine.WithLane
	NewRecorder   = trace.NewRecorder

	// Run executes a configuration and returns its recorded trace.
	Run = engine.Run
	// Midpoint returns the delay = d/2 adversary used by the constructions.
	Midpoint = engine.Midpoint
	// CloneAdversaryState returns an independent copy of an adversary's
	// mutable decision state (the adversary itself when stateless); ok is
	// false for an adversary that observes the run without being cloneable.
	CloneAdversaryState = engine.CloneAdversaryState
)

// Scenario matrix (internal/scenario): the registered topology × fault ×
// drift grid, its runners, and the certified envelope it gates against.
var (
	ScenarioSmoke     = scenario.Smoke
	ScenarioMatrix    = scenario.Matrix
	RunScenario       = scenario.RunScenario
	RunScenarioMatrix = scenario.RunMatrix
	CertifiedBound    = scenario.CertifiedBound
)

// Drift profiles for scenario cells.
const (
	DriftHomogeneous   = scenario.DriftHomogeneous
	DriftHeterogeneous = scenario.DriftHeterogeneous
	DriftBursty        = scenario.DriftBursty
)

// Indistinguishability and side-condition checkers (§3 of the paper).
var (
	CheckIndistinguishable = trace.CheckIndistinguishable
	CheckDelayBounds       = trace.CheckDelayBounds
	CheckRateBounds        = trace.CheckRateBounds
	PrefixEqual            = trace.PrefixEqual
)

// Algorithms.
type (
	// GradientParams configures the rate-based gradient protocol.
	GradientParams = algorithms.GradientParams
	// LLWParams configures the blocking gradient protocol.
	LLWParams = algorithms.LLWParams
	// ValueMsg carries a logical clock value.
	ValueMsg = algorithms.ValueMsg
	// PulseMsg is an RBS beacon pulse.
	PulseMsg = algorithms.PulseMsg
)

// Algorithm constructors.
var (
	Null                  = algorithms.Null
	MaxGossip             = algorithms.MaxGossip
	MaxFlood              = algorithms.MaxFlood
	BoundedMax            = algorithms.BoundedMax
	Gradient              = algorithms.Gradient
	LLW                   = algorithms.LLW
	DefaultLLWParams      = algorithms.DefaultLLWParams
	RootSync              = algorithms.RootSync
	RBS                   = algorithms.RBS
	DefaultGradientParams = algorithms.DefaultGradientParams
	AllProtocols          = algorithms.All
)

// GCS problem checkers (§4 of the paper).
type (
	// GradientFunc is a candidate bound f: distance → allowed skew.
	GradientFunc = core.GradientFunc
	// PairSkew is the observed worst skew for one pair.
	PairSkew = core.PairSkew
	// GradientReport summarizes an f-gradient check.
	GradientReport = core.GradientReport
	// ProfilePoint is one point of the empirical gradient profile f̂(d).
	ProfilePoint = core.ProfilePoint
)

// Checkers and metrics.
var (
	CheckValidity      = core.CheckValidity
	CheckGradient      = core.CheckGradient
	LinearGradient     = core.LinearGradient
	GlobalSkew         = core.GlobalSkew
	LocalSkew          = core.LocalSkew
	SkewProfile        = core.SkewProfile
	MaxIncreasePerUnit = core.MaxIncreasePerUnit
)

// Online metrics: engine observers maintaining the same quantities as the
// post-hoc checkers, in O(nodes²) state with no trace retention.
type (
	// SkewTracker maintains running global/local/per-pair skew.
	SkewTracker = core.SkewTracker
	// GradientTracker adds online f-gradient checking and first-violation
	// detection to a SkewTracker.
	GradientTracker = core.GradientTracker
	// ValidityTracker checks Requirement 1 online.
	ValidityTracker = core.ValidityTracker
)

// Online metric constructors.
var (
	NewSkewTracker     = core.NewSkewTracker
	NewGradientTracker = core.NewGradientTracker
	NewValidityTracker = core.NewValidityTracker
)

// Worst-case adversary search (internal/search): hunt skew-maximizing
// executions by replay-based branching over delay and drift choices,
// evaluated prefix-cached (shared script prefixes run once, Engine.Fork
// branches the suffixes) on a deterministic parallel worker pool.
type (
	// SearchOptions configures a worst-case search.
	SearchOptions = search.Options
	// SearchResult is the best adversary found, as a replayable script plus
	// rate overrides with the certifying objective values.
	SearchResult = search.Result
	// SearchObjective selects the maximized quantity.
	SearchObjective = search.Objective
	// SearchSeed is an initial candidate injected into the search beam —
	// typically a certified construction exported via an AdversarySeed.
	SearchSeed = search.Seed
	// Decision is one captured per-message delay choice.
	Decision = search.Decision
	// DecisionLog is an engine observer converting a run's delay decisions
	// into a replayable script.
	DecisionLog = search.DecisionLog
)

// Search objectives.
const (
	ObjectiveGlobalSkew     = search.ObjectiveGlobalSkew
	ObjectiveLocalSkew      = search.ObjectiveLocalSkew
	ObjectiveGradientMargin = search.ObjectiveGradientMargin
)

// Search drivers.
var (
	Search         = search.Search
	NewDecisionLog = search.NewDecisionLog
	ParseObjective = search.ParseObjective
)

// Lower-bound constructions (§5–§8 of the paper).
type (
	// LowerBoundParams carries ρ and the derived constants τ, γ.
	LowerBoundParams = lowerbound.Params
	// ShiftResult certifies the Ω(d) two-node bound.
	ShiftResult = lowerbound.ShiftResult
	// AddSkewInput / AddSkewResult are Lemma 6.1.
	AddSkewInput  = lowerbound.AddSkewInput
	AddSkewResult = lowerbound.AddSkewResult
	// BoundedIncreaseInput / BoundedIncreaseResult are Lemma 7.1.
	BoundedIncreaseInput  = lowerbound.BoundedIncreaseInput
	BoundedIncreaseResult = lowerbound.BoundedIncreaseResult
	// MainTheoremInput / MainTheoremResult are Theorem 8.1.
	MainTheoremInput  = lowerbound.MainTheoremInput
	MainTheoremResult = lowerbound.MainTheoremResult
	// TheoremRound is one round's certificate.
	TheoremRound = lowerbound.Round
	// CounterexampleInput / CounterexampleResult are the §2 scenario.
	CounterexampleInput  = lowerbound.CounterexampleInput
	CounterexampleResult = lowerbound.CounterexampleResult
	// AdaptiveScheduler is the §2 counterexample scheduler in general online
	// form: a stateful adversary that watches the run it is delaying and
	// releases the source→front edge when the observed drift reaches its
	// threshold. The first adaptive strategy of the portfolio.
	AdaptiveScheduler = lowerbound.AdaptiveScheduler
	// AdaptiveCounterexampleInput / AdaptiveCounterexampleResult are the §2
	// scenario driven by the online scheduler instead of a scripted switch.
	AdaptiveCounterexampleInput  = lowerbound.AdaptiveCounterexampleInput
	AdaptiveCounterexampleResult = lowerbound.AdaptiveCounterexampleResult
	// AdversarySeed is a construction's adversary (delay script + surgery
	// schedules) packaged as a search seed; ShiftResult, AddSkewResult, and
	// MainTheoremResult all export one via their Seed methods.
	AdversarySeed = lowerbound.AdversarySeed
)

// Construction drivers.
var (
	DefaultLowerBoundParams = lowerbound.DefaultParams
	Shift                   = lowerbound.Shift
	AddSkew                 = lowerbound.AddSkew
	BoundedIncrease         = lowerbound.BoundedIncrease
	MainTheorem             = lowerbound.MainTheorem
	Counterexample          = lowerbound.Counterexample
	AdaptiveCounterexample  = lowerbound.AdaptiveCounterexample
	NewAdaptiveScheduler    = lowerbound.NewAdaptiveScheduler
	AutoThreshold           = lowerbound.AutoThreshold
	RenderFigure1           = lowerbound.RenderFigure1
	RenderRounds            = lowerbound.RenderRounds
)

// Application workloads (§1 of the paper).
type (
	// TrackingConfig / TrackingReport: target-tracking velocity estimation.
	TrackingConfig = workload.TrackingConfig
	TrackingReport = workload.TrackingReport
	// TDMAConfig / TDMAReport: slotted transmission collisions.
	TDMAConfig = workload.TDMAConfig
	TDMAReport = workload.TDMAReport
	// FusionReport: data-fusion sibling consistency.
	FusionReport = workload.FusionReport
	// SiblingSkew is the worst skew among one parent's children.
	SiblingSkew = workload.SiblingSkew
)

// Workload drivers.
var (
	BinaryFusionTree  = workload.BinaryFusionTree
	FusionConsistency = workload.FusionConsistency
	Tracking          = workload.Tracking
	TDMA              = workload.TDMA
	TDMAFeasible      = workload.TDMAFeasible
)

// Terminal plotting.
type (
	// PlotSeries is one named curve for Chart.
	PlotSeries = plot.Series
)

// Plot helpers (ASCII charts of exact simulation data).
var (
	SkewTimeSeries = plot.TimeSeries
	Chart          = plot.Chart
	Bars           = plot.Bars
)
