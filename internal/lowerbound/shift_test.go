package lowerbound

import (
	"testing"

	"gcs/internal/algorithms"
	"gcs/internal/rat"
)

func ri(n int64) rat.Rat    { return rat.FromInt(n) }
func rf(n, d int64) rat.Rat { return rat.MustFrac(n, d) }

func TestParams(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Tau().Equal(ri(2)) {
		t.Errorf("τ = %s, want 2", p.Tau())
	}
	if !p.Gamma().Equal(rf(10, 9)) {
		t.Errorf("γ = %s, want 10/9", p.Gamma())
	}
	if !p.GainFraction().Equal(rf(1, 10)) {
		t.Errorf("gain fraction = %s, want 1/10", p.GainFraction())
	}
	if !p.RateBandHigh().Equal(rf(5, 4)) {
		t.Errorf("rate band = %s, want 5/4", p.RateBandHigh())
	}
	// γ stays within the band (claim 6.3 viability).
	if p.Gamma().Greater(p.RateBandHigh()) {
		t.Error("γ exceeds 1+ρ/2")
	}
	bad := Params{Rho: ri(1)}
	if err := bad.Validate(); err == nil {
		t.Error("ρ = 1 should be invalid")
	}
}

func TestShiftAcrossProtocols(t *testing.T) {
	p := DefaultParams()
	for _, proto := range algorithms.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			for _, d := range []rat.Rat{ri(1), ri(2), ri(4)} {
				res, err := Shift(proto, d, p)
				if err != nil {
					t.Fatalf("d=%s: %v", d, err)
				}
				want := p.GainFraction().Mul(d)
				if res.Separation.Less(want) {
					t.Errorf("d=%s: separation %s < guaranteed %s", d, res.Separation, want)
				}
				// The implied worst-case skew is at least half the separation.
				if res.Implied.Mul(ri(2)).Less(want) {
					t.Errorf("d=%s: implied bound %s too small", d, res.Implied)
				}
			}
		})
	}
}

func TestShiftRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := Shift(algorithms.Null(), rf(1, 2), p); err == nil {
		t.Error("d < 1 should error")
	}
	if _, err := Shift(algorithms.Null(), ri(1), Params{Rho: ri(0)}); err == nil {
		t.Error("ρ = 0 should error")
	}
}

func TestShiftBetaIsValidExecution(t *testing.T) {
	// The β execution must itself satisfy the model: drift-bounded rates and
	// delays within [0, d] (engine.Run validates both; this test documents it).
	res, err := Shift(algorithms.MaxGossip(ri(1)), ri(4), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Beta.Duration.GreaterEq(res.Alpha.Duration) {
		t.Errorf("β duration %s should be shorter than α duration %s",
			res.Beta.Duration, res.Alpha.Duration)
	}
	// T' = S + (τ/γ)d = 0 + (2·9/10)·4 = 36/5.
	if !res.Beta.Duration.Equal(rf(36, 5)) {
		t.Errorf("T' = %s, want 36/5", res.Beta.Duration)
	}
}
