package lowerbound

import (
	"testing"
	"testing/quick"

	"gcs/internal/algorithms"
	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/network"
	"gcs/internal/rat"
)

// TestQuickAddSkewRandomized fuzzes the Add Skew lemma over random line
// sizes, interior pairs, warmup lengths, and protocols: the certificate
// (indistinguishability + rate/delay bounds + guaranteed gain) must hold for
// every valid input, and the per-node speed-up times must form the Figure 1
// staircase.
func TestQuickAddSkewRandomized(t *testing.T) {
	p := DefaultParams()
	protos := []engine.Protocol{
		algorithms.Null(),
		algorithms.MaxGossip(ri(1)),
		algorithms.MaxFlood(ri(1)),
		algorithms.BoundedMax(ri(1), ri(1)),
		algorithms.Gradient(algorithms.DefaultGradientParams()),
		algorithms.LLW(algorithms.DefaultLLWParams()),
	}
	f := func(nRaw, iRaw, jRaw, warmRaw, protoRaw uint8) bool {
		n := int(nRaw%7) + 4 // 4..10 nodes
		i := int(iRaw) % (n - 1)
		j := i + 1 + int(jRaw)%(n-1-i)
		warmup := ri(int64(warmRaw % 8))
		proto := protos[int(protoRaw)%len(protos)]

		net, err := network.Line(n)
		if err != nil {
			return false
		}
		scheds := make([]*clock.Schedule, n)
		for k := range scheds {
			scheds[k] = clock.Constant(ri(1))
		}
		span := int64(j - i)
		cfg := engine.Config{
			Net:       net,
			Schedules: scheds,
			Adversary: engine.Midpoint(),
			Protocol:  proto,
			Duration:  warmup.Add(p.Tau().Mul(ri(span))),
			Rho:       p.Rho,
		}
		alpha, err := engine.Run(cfg)
		if err != nil {
			return false
		}
		positions := make([]rat.Rat, n)
		for k := range positions {
			positions[k] = ri(int64(k))
		}
		res, err := AddSkew(AddSkewInput{
			Cfg: cfg, Alpha: alpha, Positions: positions,
			I: i, J: j, S: warmup, Params: p,
		})
		if err != nil {
			t.Logf("n=%d i=%d j=%d warmup=%s proto=%s: %v", n, i, j, warmup, proto.Name(), err)
			return false
		}
		// Figure 1 staircase between i and j.
		step := p.Tau().Div(p.Gamma())
		for k := i; k < j; k++ {
			if !res.Tk[k+1].Sub(res.Tk[k]).Equal(step) {
				return false
			}
		}
		return res.Gain.GreaterEq(res.GuaranteedGain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickShiftGainExact checks the shift separation formula d/(8+4ρ)·2 on
// random distances: for rate-1 symmetric α the β skew equals the gain
// exactly.
func TestQuickShiftGainExact(t *testing.T) {
	p := DefaultParams()
	f := func(dRaw uint8) bool {
		d := ri(int64(dRaw%20) + 1)
		res, err := Shift(algorithms.MaxGossip(ri(1)), d, p)
		if err != nil {
			return false
		}
		// Symmetric α ⇒ skew(α) = 0 and separation = skew(β).
		if !res.SkewAlpha.IsZero() {
			return false
		}
		return res.Separation.Equal(res.SkewBeta) &&
			res.Separation.GreaterEq(p.GainFraction().Mul(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMainTheoremBranchSweep runs tiny constructions across branch factors:
// milestones must hold regardless of the branch choice.
func TestMainTheoremBranchSweep(t *testing.T) {
	p := DefaultParams()
	for _, branch := range []int64{2, 3, 5, 8} {
		res, err := MainTheorem(MainTheoremInput{
			Protocol: algorithms.MaxGossip(ri(1)),
			Params:   p,
			Branch:   branch,
			Rounds:   2,
		})
		if err != nil {
			t.Fatalf("branch %d: %v", branch, err)
		}
		for _, r := range res.Rounds {
			if !r.TargetMet {
				t.Errorf("branch %d round %d: milestone not met (Δ=%s, target=%s)",
					branch, r.K, r.NextSkew, r.Target)
			}
		}
	}
}
