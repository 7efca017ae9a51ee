package lowerbound

import (
	"strings"
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/core"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
)

// TestAdaptiveSchedulerDecisions: full delay everywhere before the release,
// zero on the source→front edge after, full elsewhere; the release fires at
// the first observed event where the hardware gap reaches the threshold.
func TestAdaptiveSchedulerDecisions(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	adv, err := NewAdaptiveScheduler(net, 0, 2, rat.MustFrac(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adv.Released(); ok {
		t.Fatal("released before any observation")
	}
	bound := rat.FromInt(2)
	if d := adv.Delay(0, 2, 0, rat.Rat{}, bound); !d.Equal(bound) {
		t.Fatalf("pre-release delay %s, want full bound %s", d, bound)
	}

	scheds := []*clock.Schedule{
		clock.Constant(p.RateBandHigh()),
		clock.Constant(rat.FromInt(1)),
		clock.Constant(rat.FromInt(1)),
	}
	eng, err := engine.New(net,
		engine.WithProtocol(algorithms.MaxGossip(rat.FromInt(1))),
		engine.WithAdversary(adv),
		engine.WithSchedules(scheds),
		engine.WithRho(p.Rho),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(rat.FromInt(8)); err != nil {
		t.Fatal(err)
	}
	relAt, ok := adv.Released()
	if !ok {
		t.Fatal("release never fired")
	}
	// Gap grows at ρ/2 = 1/4 per unit: threshold 1/2 is reachable from t=2 on.
	if relAt.Less(rat.FromInt(2)) {
		t.Fatalf("released at %s, before the gap could reach the threshold", relAt)
	}
	if d := adv.Delay(0, 2, 9, rat.Rat{}, bound); !d.IsZero() {
		t.Fatalf("post-release source→front delay %s, want 0", d)
	}
	if d := adv.Delay(0, 1, 9, rat.Rat{}, bound); !d.Equal(bound) {
		t.Fatalf("post-release off-edge delay %s, want full bound", d)
	}
}

// TestAdaptiveSchedulerFixedLane: the DelayDenom hint (delays are zero or
// the bound — D = 1) lets an adaptive run engage the fixed-point lane,
// counted via Metrics.FixedLaneRuns, and the fixed-lane run's trigger lands
// on exactly the forced rat-lane run's release instant.
func TestAdaptiveSchedulerFixedLane(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	run := func(lane engine.Lane) (*AdaptiveScheduler, *engine.Metrics) {
		t.Helper()
		adv, err := NewAdaptiveScheduler(net, 0, 2, rat.MustFrac(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		scheds := []*clock.Schedule{
			clock.Constant(p.RateBandHigh()),
			clock.Constant(rat.FromInt(1)),
			clock.Constant(rat.FromInt(1)),
		}
		met := engine.NewMetrics(obs.NewRegistry())
		eng, err := engine.New(net,
			engine.WithProtocol(algorithms.MaxGossip(rat.FromInt(1))),
			engine.WithAdversary(adv),
			engine.WithSchedules(scheds),
			engine.WithRho(p.Rho),
			engine.WithLane(lane),
			engine.WithMetrics(met),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(rat.FromInt(8)); err != nil {
			t.Fatal(err)
		}
		return adv, met
	}
	fixedAdv, fixedMet := run(engine.LaneAuto)
	if fixedMet.FixedLaneRuns.Value() != 1 || fixedMet.RatLaneRuns.Value() != 0 {
		t.Fatalf("adaptive run off the fixed lane: fixed=%d rat=%d",
			fixedMet.FixedLaneRuns.Value(), fixedMet.RatLaneRuns.Value())
	}
	ratAdv, ratMet := run(engine.LaneRat)
	if ratMet.RatLaneRuns.Value() != 1 {
		t.Fatalf("forced rat run counted %d rat-lane runs", ratMet.RatLaneRuns.Value())
	}
	fAt, fOK := fixedAdv.Released()
	rAt, rOK := ratAdv.Released()
	if fOK != rOK || !fOK || !fAt.Equal(rAt) {
		t.Fatalf("release differs across lanes: fixed (%s, %v) vs rat (%s, %v)", fAt, fOK, rAt, rOK)
	}
}

// TestAdaptiveSchedulerClone: the clone carries the trigger state and then
// evolves independently of the original.
func TestAdaptiveSchedulerClone(t *testing.T) {
	net, err := network.TwoNode(rat.FromInt(2))
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdaptiveScheduler(net, 0, 1, rat.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := engine.CloneAdversaryState(adv)
	if !ok {
		t.Fatal("adaptive scheduler not cloneable")
	}
	clone, ok := c.(*AdaptiveScheduler)
	if !ok || clone == adv {
		t.Fatalf("clone %T shares the original", c)
	}
	clone.hw[0] = rat.FromInt(5)
	if adv.hw[0].Equal(rat.FromInt(5)) {
		t.Fatal("mutating the clone's state reached the original")
	}
}

// TestNewAdaptiveSchedulerValidation: loud errors on bad roles/thresholds.
func TestNewAdaptiveSchedulerValidation(t *testing.T) {
	net, err := network.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		source, front int
		threshold     rat.Rat
		want          string
	}{
		{"same node", 1, 1, rat.FromInt(1), "invalid source"},
		{"out of range", 0, 7, rat.FromInt(1), "invalid source"},
		{"zero threshold", 0, 2, rat.Rat{}, "threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewAdaptiveScheduler(net, tc.source, tc.front, tc.threshold)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := NewAdaptiveScheduler(nil, 0, 1, rat.FromInt(1)); err == nil {
		t.Fatal("nil network accepted")
	}
}

// TestAdaptiveCounterexampleSpikesMaxBased: the online scheduler reproduces
// the §2 story with no scripted switch time — max-based algorithms show a
// Θ(D) spike between nodes at distance 1, the gradient algorithm does not.
func TestAdaptiveCounterexampleSpikesMaxBased(t *testing.T) {
	p := DefaultParams()
	dc := rat.FromInt(32)
	// Long enough for the auto threshold to fire and the release to play out.
	dur := dc.Div(p.Rho.Div(rat.FromInt(2))).Add(dc).Add(rat.FromInt(8))
	run := func(proto engine.Protocol) *AdaptiveCounterexampleResult {
		t.Helper()
		res, err := AdaptiveCounterexample(AdaptiveCounterexampleInput{
			Protocol: proto,
			Dc:       dc,
			Duration: dur,
			Params:   p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	spike := run(algorithms.MaxGossip(rat.FromInt(1)))
	if spike.Ratio < 0.2 {
		t.Fatalf("max-gossip adaptive peak/Dc = %.3f, want a Θ(D) spike", spike.Ratio)
	}
	if spike.ReleasedAt.Sign() <= 0 || spike.ReleasedAt.GreaterEq(dur) {
		t.Fatalf("release at %s outside the run", spike.ReleasedAt)
	}
	flat := run(algorithms.Gradient(algorithms.DefaultGradientParams()))
	if flat.Ratio >= spike.Ratio/2 {
		t.Fatalf("gradient adaptive peak/Dc = %.3f vs max-gossip %.3f: rate cap did not damp the spike", flat.Ratio, spike.Ratio)
	}
}

// TestAdaptiveCounterexampleUnreachableThreshold: a threshold the run can
// never accumulate errors instead of silently reporting a no-release run.
func TestAdaptiveCounterexampleUnreachableThreshold(t *testing.T) {
	_, err := AdaptiveCounterexample(AdaptiveCounterexampleInput{
		Protocol:  algorithms.MaxGossip(rat.FromInt(1)),
		Dc:        rat.FromInt(4),
		Threshold: rat.FromInt(1000),
		Duration:  rat.FromInt(20),
		Params:    DefaultParams(),
	})
	if err == nil || !strings.Contains(err.Error(), "never reached") {
		t.Fatalf("unreachable threshold: %v", err)
	}
}

// TestAdaptiveTwoNodeAttainsShiftBound is the acceptance bar from the
// roadmap: on the two-node cell, the generalized §2 online scheduler — full
// staleness plus a fast source, no per-protocol tuning — must force at
// least the certified Shift lower bound out of every protocol in the
// portfolio, exactly as the scripted beam search does.
func TestAdaptiveTwoNodeAttainsShiftBound(t *testing.T) {
	p := DefaultParams()
	d := rat.FromInt(2)
	dur := p.Tau().Mul(d)
	for _, proto := range algorithms.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			shift, err := Shift(proto, d, p)
			if err != nil {
				t.Fatal(err)
			}
			net, err := network.TwoNode(d)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := NewAdaptiveScheduler(net, 0, 1, AutoThreshold(p.Rho, dur))
			if err != nil {
				t.Fatal(err)
			}
			scheds := []*clock.Schedule{
				clock.Constant(p.RateBandHigh()),
				clock.Constant(rat.FromInt(1)),
			}
			skew, err := core.NewSkewTracker(net, scheds)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.New(net,
				engine.WithProtocol(proto),
				engine.WithAdversary(adv),
				engine.WithSchedules(scheds),
				engine.WithRho(p.Rho),
				engine.WithObservers(skew),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntil(dur); err != nil {
				t.Fatal(err)
			}
			if err := skew.Err(); err != nil {
				t.Fatal(err)
			}
			got := skew.Global().Skew
			if got.Less(shift.Implied) {
				t.Fatalf("adaptive skew %s below the certified Shift bound %s", got, shift.Implied)
			}
		})
	}
}
