// The §2 counterexample scheduler in general, online form.
//
// The scripted Counterexample fixes the switch time in advance: it knows the
// hardware schedules, computes when the stale view will have drifted far
// enough, and collapses the x→y delay at exactly that real time. The paper's
// adversary, however, is *online*: it watches the execution and reacts
// (Fan & Lynch, PODC 2004, §2 — "the adversary then changes the delay").
// AdaptiveScheduler is that adversary in general form, for any topology and
// any hardware schedules. It holds every message out of a designated fast
// Source at its full delay bound — every node's view of the source is
// maximally stale — and every message out of a designated Front node
// equally stale (fresh news spreads as late as possible), while return
// traffic flows instantly, exactly the scripted §2 delay shape. Meanwhile
// it watches the hardware-clock readings in the event stream it is
// scheduling (via the engine's adversary feedback hooks): the moment an
// event at the front shows the source has run ahead by the release
// threshold, it collapses the Source→Front delay to zero. Front jumps to
// the fresh value while its neighbors are still a full delay behind the
// news — the §2 gradient violation — without the adversary ever having
// been told when the run's clocks would diverge.
package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/piecewise"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// AdaptiveScheduler is an online (adaptive) delay adversary implementing the
// generalized §2 strategy. It is stateful: it implements engine.Observer to
// receive the run it is scheduling, and engine.StatefulAdversary so
// Engine.Fork can clone its state at a fork point — a trunk and its forks
// then trigger independently, each from its own observation stream.
//
// One AdaptiveScheduler instance belongs to one run (or one run tree, via
// cloning). To schedule a second independent run, construct a fresh one or
// clone a pristine instance.
type AdaptiveScheduler struct {
	net       *network.Network
	source    int
	front     int
	threshold rat.Rat

	hw       []rat.Rat // latest observed hardware reading per node
	released bool
	relAt    rat.Rat // real time of the release decision
}

var (
	_ engine.Adversary         = (*AdaptiveScheduler)(nil)
	_ engine.StatefulAdversary = (*AdaptiveScheduler)(nil)
	_ engine.Observer          = (*AdaptiveScheduler)(nil)
	_ engine.DenomHinter       = (*AdaptiveScheduler)(nil)
)

// NewAdaptiveScheduler builds the generalized §2 adversary for net: hold
// source- and front-outgoing traffic maximally stale, release the
// source→front edge once the hardware gap observed at a front event reaches
// threshold (> 0). source and front must be distinct nodes; front is
// conventionally the node whose stale-then-fresh jump the construction
// exposes (the paper's y, with the fast x as source).
func NewAdaptiveScheduler(net *network.Network, source, front int, threshold rat.Rat) (*AdaptiveScheduler, error) {
	if net == nil {
		return nil, fmt.Errorf("lowerbound: adaptive scheduler: nil network")
	}
	n := net.N()
	if source < 0 || source >= n || front < 0 || front >= n || source == front {
		return nil, fmt.Errorf("lowerbound: adaptive scheduler: invalid source %d / front %d for %d nodes", source, front, n)
	}
	if threshold.Sign() <= 0 {
		return nil, fmt.Errorf("lowerbound: adaptive scheduler: non-positive release threshold %s", threshold)
	}
	return &AdaptiveScheduler{
		net:       net,
		source:    source,
		front:     front,
		threshold: threshold,
		hw:        make([]rat.Rat, n),
	}, nil
}

// AutoThreshold returns the conventional release threshold for a run of the
// given duration: ρ·dur/3, the hardware gap a source running at 1+ρ/2 over
// rate-1 peers accumulates by two thirds of the run — late enough for the
// held-back skew to build, early enough for the release to play out.
func AutoThreshold(rho, dur rat.Rat) rat.Rat {
	return rho.Mul(dur).Div(rat.FromInt(3))
}

// Source returns the designated fast node x.
func (a *AdaptiveScheduler) Source() int { return a.source }

// Front returns the designated release target y.
func (a *AdaptiveScheduler) Front() int { return a.front }

// Released reports whether the release has fired, and at what real time.
func (a *AdaptiveScheduler) Released() (rat.Rat, bool) { return a.relAt, a.released }

// Delay implements engine.Adversary, the scripted §2 delay shape made
// state-dependent: messages out of the source travel at the full bound
// (stale views everywhere) except source→front after the release (the news
// arrives instantly); messages out of the front travel at the full bound
// (its fresh value reaches its neighbors as late as possible); all other
// traffic is instant. Delay is a pure read of the observer-accumulated
// state, so cloned schedulers replaying identical streams make identical
// decisions.
func (a *AdaptiveScheduler) Delay(from, to int, _ uint64, _ rat.Rat, bound rat.Rat) rat.Rat {
	switch {
	case from == a.source && to == a.front:
		if a.released {
			return rat.Rat{}
		}
		return bound
	case from == a.source || from == a.front:
		return bound
	default:
		return rat.Rat{}
	}
}

// DelayDenom implements engine.DenomHinter: every delay this scheduler
// returns is zero or the bound itself — integer multiples of the bound —
// so D = 1 and the adaptive lower-bound runs stay on the fixed-point lane
// whenever the schedules and bounds themselves fit the grid.
func (a *AdaptiveScheduler) DelayDenom() int64 { return 1 }

// OnAction implements engine.Observer: track each node's hardware reading
// and arm the release the first time an event at the front node shows the
// source's reading ahead of the front's by the threshold. Evaluating only
// at front events, against the front's exact current reading, keeps the
// trigger conservative: the retained source reading can only lag the truth,
// so the release can fire late but never before the real gap exists. The
// trigger depends only on the observed action stream, so it fires at the
// same event in every byte-identical run.
func (a *AdaptiveScheduler) OnAction(act trace.Action) {
	if act.Kind == trace.KindSend {
		return // sends carry the same reading as their enclosing event
	}
	a.hw[act.Node] = act.HW
	if !a.released && act.Node == a.front && a.hw[a.source].Sub(act.HW).GreaterEq(a.threshold) {
		a.released = true
		a.relAt = act.Real
	}
}

// OnSend implements engine.Observer (no-op: OnAction carries the readings).
func (a *AdaptiveScheduler) OnSend(trace.MsgRecord) {}

// OnDeliver implements engine.Observer (no-op).
func (a *AdaptiveScheduler) OnDeliver(trace.MsgRecord) {}

// Clone returns an independent scheduler carrying the full trigger state.
func (a *AdaptiveScheduler) Clone() *AdaptiveScheduler {
	c := *a
	c.hw = append([]rat.Rat(nil), a.hw...)
	return &c
}

// CloneAdversary implements engine.StatefulAdversary.
func (a *AdaptiveScheduler) CloneAdversary() engine.Adversary { return a.Clone() }

// String returns a debugging label.
func (a *AdaptiveScheduler) String() string {
	return fmt.Sprintf("adaptive(%d→%d @ %s)", a.source, a.front, a.threshold)
}

// AdaptiveCounterexampleInput configures the online form of the §2
// scenario: the same three-node x–y–z geometry as Counterexample, but the
// switch is *discovered* by the adversary (release when the observed
// hardware gap between x and y reaches Threshold) instead of scripted at a
// known real time.
type AdaptiveCounterexampleInput struct {
	Protocol engine.Protocol
	// Dc is the x−y distance (the paper's "D").
	Dc rat.Rat
	// Threshold is the observed HW(x) − HW(y) gap that triggers the release;
	// zero selects AutoThreshold(ρ, Duration).
	Threshold rat.Rat
	// Duration of the run (long enough for the release to fire and play out).
	Duration rat.Rat
	Params   Params
}

// AdaptiveCounterexampleResult certifies the online gradient violation.
type AdaptiveCounterexampleResult struct {
	Exec *trace.Execution
	// ReleasedAt is the real time the online trigger fired.
	ReleasedAt rat.Rat
	// PeakYZ is the largest L_y − L_z observed after the release; the
	// gradient property would require it ≤ f(1), here it scales with Dc.
	PeakYZ piecewise.Extremum
	// PreReleaseYZ is the largest |L_y − L_z| before the release (small).
	PreReleaseYZ piecewise.Extremum
	// Ratio = PeakYZ / Dc (reported as float for readability).
	Ratio float64
}

// AdaptiveCounterexample runs the §2 construction with the online scheduler:
// same geometry and rates as Counterexample, but no scripted switch time —
// the adversary watches the run and releases itself. It errors if the
// release never fires within the run (threshold unreachable), since then no
// violation was constructed.
func AdaptiveCounterexample(in AdaptiveCounterexampleInput) (*AdaptiveCounterexampleResult, error) {
	p := in.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	one := rat.FromInt(1)
	if in.Dc.Less(one) {
		return nil, fmt.Errorf("lowerbound: Dc = %s < 1", in.Dc)
	}
	if in.Duration.Sign() <= 0 {
		return nil, fmt.Errorf("lowerbound: non-positive duration %s", in.Duration)
	}
	threshold := in.Threshold
	if threshold.IsZero() {
		threshold = AutoThreshold(p.Rho, in.Duration)
	}
	const x, y, z = 0, 1, 2
	dxy := in.Dc
	dxz := in.Dc.Add(one)
	dist := [][]rat.Rat{
		{{}, dxy, dxz},
		{dxy, {}, one},
		{dxz, one, {}},
	}
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	net, err := network.New(fmt.Sprintf("adaptive-counterexample-D%s", in.Dc), dist, adj)
	if err != nil {
		return nil, err
	}
	scheds := []*clock.Schedule{
		clock.Constant(p.RateBandHigh()),
		clock.Constant(one),
		clock.Constant(one),
	}
	adv, err := NewAdaptiveScheduler(net, x, y, threshold)
	if err != nil {
		return nil, err
	}
	exec, err := engine.Run(engine.Config{
		Net:       net,
		Schedules: scheds,
		Adversary: adv,
		Protocol:  in.Protocol,
		Duration:  in.Duration,
		Rho:       p.Rho,
	})
	if err != nil {
		return nil, fmt.Errorf("lowerbound: adaptive counterexample run: %w", err)
	}
	relAt, ok := adv.Released()
	if !ok {
		return nil, fmt.Errorf("lowerbound: adaptive counterexample: release threshold %s never reached within duration %s", threshold, in.Duration)
	}
	res := &AdaptiveCounterexampleResult{Exec: exec, ReleasedAt: relAt}
	res.PeakYZ = piecewise.MaxDiff(exec.Logical[y], exec.Logical[z], relAt, in.Duration)
	preEnd := relAt.Sub(one)
	if preEnd.Sign() < 0 {
		preEnd = rat.Rat{}
	}
	res.PreReleaseYZ = piecewise.MaxAbsDiff(exec.Logical[y], exec.Logical[z], rat.Rat{}, preEnd)
	res.Ratio = res.PeakYZ.Val.Float64() / in.Dc.Float64()
	return res, nil
}
