package engine

import (
	"strings"
	"testing"

	"gcs/internal/rat"
	"gcs/internal/trace"
)

// TestHashAdversarySeedDeterminism: the delay is a pure function of
// (seed, from, to, seq) — two adversaries with the same seed agree
// everywhere, and a different seed produces a different delay somewhere.
func TestHashAdversarySeedDeterminism(t *testing.T) {
	a := HashAdversary{Seed: 42, Denom: 16}
	b := HashAdversary{Seed: 42, Denom: 16}
	other := HashAdversary{Seed: 43, Denom: 16}
	bound := rat.FromInt(3)
	differs := false
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if to == from {
				continue
			}
			for seq := uint64(0); seq < 16; seq++ {
				da := a.Delay(from, to, seq, rat.Rat{}, bound)
				db := b.Delay(from, to, seq, rat.FromInt(7), bound) // sendReal must not matter
				if !da.Equal(db) {
					t.Fatalf("same seed disagrees at %d→%d seq %d: %s vs %s", from, to, seq, da, db)
				}
				if !da.Equal(other.Delay(from, to, seq, rat.Rat{}, bound)) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical delays on every probed message")
	}
}

// TestHashAdversaryDelayRange: for every probed input and quantization the
// delay lies in [0, bound] and is an exact multiple of bound/denom.
func TestHashAdversaryDelayRange(t *testing.T) {
	for _, denom := range []int64{0, 1, 8, 16, 64} {
		a := HashAdversary{Seed: 7, Denom: denom}
		eff := denom
		if eff <= 0 {
			eff = 16
		}
		for _, bound := range []rat.Rat{rat.FromInt(1), rat.FromInt(5), rat.MustFrac(3, 2)} {
			for seq := uint64(0); seq < 64; seq++ {
				d := a.Delay(0, 1, seq, rat.Rat{}, bound)
				if d.Sign() < 0 || d.Greater(bound) {
					t.Fatalf("denom=%d bound=%s seq=%d: delay %s outside [0, %s]", denom, bound, seq, d, bound)
				}
				// d = k/eff · bound for an integer k.
				steps := d.Div(bound).Mul(rat.FromInt(eff))
				if !steps.IsInt() {
					t.Fatalf("denom=%d bound=%s seq=%d: delay %s not quantized to %d-ths", denom, bound, seq, d, eff)
				}
			}
		}
	}
	if got := (HashAdversary{Seed: 9}).String(); got != "hash-9" {
		t.Fatalf("String() = %q", got)
	}
}

// TestAdversaryByName: each name builds its adversary (random keyed by the
// seed), and an unknown name's error lists every valid one.
func TestAdversaryByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Adversary
	}{
		{"midpoint", Midpoint()},
		{"zero", FractionAdversary{Frac: rat.Rat{}}},
		{"max", FractionAdversary{Frac: rat.FromInt(1)}},
		{"random", HashAdversary{Seed: 7, Denom: 8}},
	} {
		adv, err := AdversaryByName(tc.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if adv != tc.want {
			t.Errorf("%s: built %#v, want %#v", tc.name, adv, tc.want)
		}
	}
	_, err := AdversaryByName("chaos", 1)
	if err == nil {
		t.Fatal("unknown adversary built")
	}
	for _, name := range []string{"midpoint", "zero", "max", "random"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestScriptedAdversaryChecked: scripted keys replay, unscripted keys
// delegate to the tail, and a missing tail is an explicit error (and a
// panic on the unchecked path, which has no error channel).
func TestScriptedAdversaryChecked(t *testing.T) {
	key := trace.MsgKey{From: 0, To: 1, Seq: 2}
	bound := rat.FromInt(4)
	sa := ScriptedAdversary{
		Delays:   map[trace.MsgKey]rat.Rat{key: rat.FromInt(3)},
		Fallback: FractionAdversary{Frac: rat.MustFrac(1, 4)},
	}
	if d, err := sa.DelayChecked(0, 1, 2, rat.Rat{}, bound); err != nil || !d.Equal(rat.FromInt(3)) {
		t.Fatalf("scripted key: got %s, %v", d, err)
	}
	if d, err := sa.DelayChecked(1, 0, 0, rat.Rat{}, bound); err != nil || !d.Equal(rat.FromInt(1)) {
		t.Fatalf("tail key: got %s, %v (want bound/4)", d, err)
	}

	bare := ScriptedAdversary{Delays: map[trace.MsgKey]rat.Rat{key: rat.FromInt(3)}}
	if _, err := bare.DelayChecked(1, 0, 0, rat.Rat{}, bound); err == nil ||
		!strings.Contains(err.Error(), "no Fallback") {
		t.Fatalf("missing tail: got %v, want explicit no-Fallback error", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("unchecked Delay past the script should panic, not nil-deref")
			}
		}()
		bare.Delay(1, 0, 0, rat.Rat{}, bound)
	}()
}
