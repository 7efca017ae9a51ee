package scenario

import (
	"gcs/internal/rat"
)

// BoundInput parameterizes the certified skew envelope for one scenario.
type BoundInput struct {
	Diameter rat.Rat    // D, in the paper's delay-uncertainty units
	Period   rat.Rat    // the protocol's gossip period (hardware time)
	Rho      rat.Rat    // drift bound
	Duration rat.Rat    // run horizon (real time)
	Fault    FaultModel // outage windows and loss/churn intensities
}

// CertifiedBound returns the D-dependent worst-case skew envelope the matrix
// gates against, for the max-based protocols (MaxGossip/MaxFlood) the matrix
// runs, plus the name of the term that bound it.
//
// Two analytic envelopes, both sound for max-based logical clocks, and the
// gate takes their minimum:
//
//   - Propagation ("diameter"): a hardware-period-P gossip cycle takes at
//     most P/(1−ρ) real time. The envelope charges D+1 cycle-plus-hop
//     terms of P/(1−ρ) + 1 each, plus the fault allowance A (total outage
//     time from crash/partition windows, and a resend allowance for
//     loss/churn). After the initial cycle, the information at any node is
//     therefore stale by at most (D+1)·(P/(1−ρ) + 1) + A real time, the
//     staleness. A max-based clock runs at rate at most 1+ρ, so the skew
//     is at most (1+ρ)·staleness.
//
//   - Drift cap ("drift-cap"): from equal starts, L_i ≤ (1+ρ)·t and
//     L_j ≥ (1−ρ)·t for every max-based clock (dropping messages only
//     lowers maxima, so faults cannot break the floor), so skew never
//     exceeds 2ρ·dur over the horizon.
//
// These are audited envelopes, not the paper's tight bounds; the committed
// golden matrix (margin column per scenario) is the regression gate that
// keeps searched skew inside them on every family.
func CertifiedBound(in BoundInput) (rat.Rat, string) {
	one := rat.FromInt(1)
	cyclesReal := in.Period.Div(one.Sub(in.Rho)) // one gossip cycle, real time
	hops := in.Diameter.Add(one)                 // (D+1) cycle-plus-hop terms
	stale := hops.Mul(cyclesReal.Add(one)).Add(faultAllowance(in, cyclesReal))
	prop := one.Add(in.Rho).Mul(stale)
	cap := rat.FromInt(2).Mul(in.Rho).Mul(in.Duration)
	if cap.Less(prop) {
		return cap, "drift-cap"
	}
	return prop, "diameter"
}

// faultAllowance grants the propagation envelope extra staleness for
// injected faults: the full length of every crash/partition outage window
// (propagation can stall completely while a cut or crashed node blocks the
// only path), plus resend allowances for probabilistic loss and churn —
// each lost hop waits at most one more gossip cycle for the next copy, and
// a churned edge additionally waits out its down period, scaled by twice
// the configured fault rate per hop (generous for the sub-1/2 rates the
// matrix uses).
func faultAllowance(in BoundInput, cyclesReal rat.Rat) rat.Rat {
	allow := in.Fault.CrashTotal()
	two := rat.FromInt(2)
	hops := in.Diameter.Add(rat.FromInt(1))
	if in.Fault.LossNum > 0 {
		rate := rat.MustFrac(in.Fault.LossNum, in.Fault.LossDen)
		allow = allow.Add(hops.Mul(cyclesReal).Mul(two.Mul(rate).Add(rat.FromInt(1))))
	}
	if in.Fault.ChurnNum > 0 {
		rate := rat.MustFrac(in.Fault.ChurnNum, in.Fault.ChurnDen)
		perHop := cyclesReal.Add(in.Fault.ChurnPeriod)
		allow = allow.Add(hops.Mul(perHop).Mul(two.Mul(rate).Add(rat.FromInt(1))))
	}
	return allow
}
