package lowerbound

import (
	"fmt"

	"gcs/internal/clock"
	"gcs/internal/engine"
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// AddSkewInput describes an application of Lemma 6.1.
//
// The lemma is stated in the paper for the line network with nodes 1..D at
// unit spacing; it generalizes verbatim to any set of nodes on a line with
// positions x_0 ≤ x_1 ≤ … and distances d(a,b) = |x_a − x_b| (the two-node
// Ω(d) argument is the special case with positions {0, d}). All formulas
// below substitute position differences for the paper's index differences.
type AddSkewInput struct {
	// Cfg is the configuration that produced Alpha (protocol, network,
	// schedules, adversary, ρ).
	Cfg engine.Config
	// Alpha is the base execution, of duration Cfg.Duration = T.
	Alpha *trace.Execution
	// Positions are the line coordinates x_k; Cfg.Net distances must equal
	// |x_a − x_b|.
	Positions []rat.Rat
	// I, J are the nodes whose skew the construction increases (x_I < x_J).
	I, J int
	// S is the start of the clean window: on [S, T] every hardware rate in
	// Alpha must be exactly 1 and every message received must have delay
	// exactly |x_a−x_b|/2, with T = S + τ·(x_J − x_I).
	S rat.Rat
	// Params supplies ρ (and hence τ, γ).
	Params Params
}

// AddSkewResult is the verified certificate of one lemma application.
type AddSkewResult struct {
	// Beta is the constructed execution of duration TPrime.
	Beta *trace.Execution
	// BetaCfg is the configuration that re-simulated Beta (surgery schedules
	// plus the scripted-delay adversary).
	BetaCfg engine.Config
	// TPrime = S + (τ/γ)(x_J − x_I), the duration of Beta.
	TPrime rat.Rat
	// Tk are the per-node speed-up times: node k runs at rate γ on
	// (Tk[k], T'].
	Tk []rat.Rat
	// SkewAlpha = L^α_I(T) − L^α_J(T); SkewBeta = L^β_I(T') − L^β_J(T').
	SkewAlpha, SkewBeta rat.Rat
	// Gain = SkewBeta − SkewAlpha; GuaranteedGain = (x_J − x_I)·(1/(8+4ρ))
	// ≥ (x_J − x_I)/12, the lemma's claim.
	Gain, GuaranteedGain rat.Rat
	// InFlight marks messages that were sent but not received in α; their β
	// delays were pinned to the maximum to keep them undelivered. When β is
	// extended (main theorem), these are re-assigned midpoint delays, while
	// messages delivered in α whose remapped receipt falls beyond T' must
	// keep their remapped delays.
	InFlight map[trace.MsgKey]bool
}

// checkAddSkewPre verifies the lemma's preconditions on α.
func checkAddSkewPre(in AddSkewInput, T rat.Rat) error {
	if err := in.Params.Validate(); err != nil {
		return err
	}
	n := in.Cfg.Net.N()
	if len(in.Positions) != n {
		return fmt.Errorf("lowerbound: %d positions for %d nodes", len(in.Positions), n)
	}
	for k := 1; k < n; k++ {
		if in.Positions[k].Less(in.Positions[k-1]) {
			return fmt.Errorf("lowerbound: positions not nondecreasing at %d", k)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			want := in.Positions[b].Sub(in.Positions[a])
			if !in.Cfg.Net.Dist(a, b).Equal(want) {
				return fmt.Errorf("lowerbound: d(%d,%d)=%s but positions give %s", a, b, in.Cfg.Net.Dist(a, b), want)
			}
		}
	}
	if in.I < 0 || in.J >= n || !in.Positions[in.I].Less(in.Positions[in.J]) {
		return fmt.Errorf("lowerbound: invalid pair (%d,%d)", in.I, in.J)
	}
	if in.S.Sign() < 0 {
		return fmt.Errorf("lowerbound: negative window start %s", in.S)
	}
	if !T.Equal(in.Cfg.Duration) {
		return fmt.Errorf("lowerbound: window end %s != α duration %s (need ℓ(α) = S + τ(x_J−x_I))", T, in.Cfg.Duration)
	}
	// Precondition 2: rate exactly 1 on [S, T].
	one := rat.FromInt(1)
	if err := trace.CheckRateBounds(in.Alpha, in.S, T, one, one); err != nil {
		return fmt.Errorf("lowerbound: add-skew precondition (rates): %w", err)
	}
	// Precondition 1: delay exactly d/2 for messages received in [S, T].
	half := rat.MustFrac(1, 2)
	if err := trace.CheckDelayBounds(in.Alpha, in.S, T, half, half); err != nil {
		return fmt.Errorf("lowerbound: add-skew precondition (delays): %w", err)
	}
	return nil
}

// remap is the event-time transformation of the lemma: identity up to Tk,
// compressed by 1/γ afterwards.
func remap(t, tk, gamma rat.Rat) rat.Rat {
	if t.LessEq(tk) {
		return t
	}
	return tk.Add(t.Sub(tk).Div(gamma))
}

// AddSkew applies Lemma 6.1: it constructs β from α, re-simulates it, and
// verifies indistinguishability, the rate bounds, the delay bounds, and the
// skew gain. Any violated side condition returns an error.
func AddSkew(in AddSkewInput) (*AddSkewResult, error) {
	tau := in.Params.Tau()
	gamma := in.Params.Gamma()
	span := in.Positions[in.J].Sub(in.Positions[in.I])
	T := in.S.Add(tau.Mul(span))
	if err := checkAddSkewPre(in, T); err != nil {
		return nil, err
	}
	tPrime := in.S.Add(tau.Div(gamma).Mul(span))
	n := in.Cfg.Net.N()

	// Per-node speed-up times Tk (using positions in place of indices).
	tk := make([]rat.Rat, n)
	for k := 0; k < n; k++ {
		switch {
		case in.Positions[k].LessEq(in.Positions[in.I]):
			tk[k] = in.S
		case in.Positions[k].GreaterEq(in.Positions[in.J]):
			tk[k] = tPrime
		default:
			tk[k] = in.S.Add(tau.Div(gamma).Mul(in.Positions[k].Sub(in.Positions[in.I])))
		}
	}

	// Surgery on the rate schedules: keep α's rates up to Tk, run at γ after.
	// (The lemma's statement writes rate 1 before Tk because α's window rates
	// are 1; outside the window the rates must simply be unchanged for the
	// executions to be identical up to S.)
	scheds := make([]*clock.Schedule, n)
	for k := 0; k < n; k++ {
		s, err := in.Cfg.Schedules[k].WithRateFrom(tk[k], gamma)
		if err != nil {
			return nil, fmt.Errorf("lowerbound: schedule surgery node %d: %w", k, err)
		}
		scheds[k] = s
	}

	// Scripted delays realizing the remapped receive times.
	script := make(map[trace.MsgKey]rat.Rat, len(in.Alpha.Ledger))
	inFlight := make(map[trace.MsgKey]bool)
	var bad firstViolation
	for i := range in.Alpha.Ledger {
		rec := &in.Alpha.Ledger[i]
		key := rec.Key
		sendB := remap(rec.SendReal, tk[key.From], gamma)
		if !rec.Delivered {
			// In flight at ℓ(α): keep it in flight in β by assigning the
			// maximum delay; the indistinguishability check would catch any
			// early arrival this fails to prevent.
			script[key] = in.Cfg.Net.Dist(key.From, key.To)
			inFlight[key] = true
			continue
		}
		recvB := remap(rec.RecvReal, tk[key.To], gamma)
		delay := recvB.Sub(sendB)
		if delay.Sign() < 0 {
			bad.note(key, fmt.Errorf("lowerbound: remapped delay for %v is negative (%s)", key, delay))
			continue
		}
		script[key] = delay
	}
	if bad.err != nil {
		return nil, bad.err
	}

	betaCfg := in.Cfg
	betaCfg.Schedules = scheds
	betaCfg.Adversary = engine.ScriptedAdversary{Delays: script, Fallback: failingAdversary{}}
	betaCfg.Duration = tPrime
	betaCfg.SizeHint = in.Alpha.Size()

	beta, err := engine.Run(betaCfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: β re-simulation: %w", err)
	}

	// Claim 6.2: indistinguishability.
	if err := trace.CheckIndistinguishable(in.Alpha, beta); err != nil {
		return nil, fmt.Errorf("lowerbound: add-skew claim 6.2: %w", err)
	}
	// Claim 6.3: β's rates within [1, γ] on (S, T'] and unchanged before.
	if err := trace.CheckRateBounds(beta, in.S, tPrime, rat.FromInt(1), gamma); err != nil {
		return nil, fmt.Errorf("lowerbound: add-skew claim 6.3: %w", err)
	}
	// Claim 6.4: delays of messages received in (S, T'] within
	// [d/4, 3d/4].
	if err := trace.CheckDelayBounds(beta, in.S, tPrime, rat.MustFrac(1, 4), rat.MustFrac(3, 4)); err != nil {
		return nil, fmt.Errorf("lowerbound: add-skew claim 6.4: %w", err)
	}

	res := &AddSkewResult{
		Beta:           beta,
		BetaCfg:        betaCfg,
		TPrime:         tPrime,
		Tk:             tk,
		SkewAlpha:      in.Alpha.FinalSkew(in.I, in.J),
		SkewBeta:       beta.FinalSkew(in.I, in.J),
		GuaranteedGain: in.Params.GainFraction().Mul(span),
		InFlight:       inFlight,
	}
	res.Gain = res.SkewBeta.Sub(res.SkewAlpha)
	// Claim 6.5: the skew gain.
	if res.Gain.Less(res.GuaranteedGain) {
		return nil, fmt.Errorf("lowerbound: add-skew claim 6.5 failed: gain %s < guaranteed %s",
			res.Gain, res.GuaranteedGain)
	}
	return res, nil
}

// failingAdversary fails the run when consulted: the scripted delays must
// cover every send a faithful re-simulation performs, so reaching the
// fallback means the construction diverged.
type failingAdversary struct{}

var _ engine.Adversary = failingAdversary{}

// Delay returns an out-of-bounds value, failing the simulation with a
// diagnosable error.
func (failingAdversary) Delay(int, int, uint64, rat.Rat, rat.Rat) rat.Rat {
	return rat.FromInt(-1)
}

// firstViolation keeps, of the violations noted while ranging over a ledger,
// the one with the smallest (From, To, Seq) key. The reported error then
// does not depend on the ledger's order. The zero value holds none.
type firstViolation struct {
	key trace.MsgKey
	err error
}

// note records err for key unless a violation with a smaller key is held.
func (v *firstViolation) note(key trace.MsgKey, err error) {
	if v.err == nil || key.Compare(v.key) < 0 {
		v.key, v.err = key, err
	}
}
