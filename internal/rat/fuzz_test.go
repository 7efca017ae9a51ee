package rat

import (
	"math/big"
	"strings"
	"testing"
)

// FuzzArith checks the fast small-operand paths of Add, Sub, and Mul against
// math/big on arbitrary fractions, including results in lowest terms (the
// Knuth-style reduced addition and the cross-reduced multiplication skip the
// final gcd on a structural argument; this is the executable version of that
// argument).
func FuzzArith(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(3))
	f.Add(int64(-7), int64(12), int64(5), int64(18))
	f.Add(int64(0), int64(1), int64(-4), int64(6))
	f.Add(int64(1)<<29, int64(3), int64(-1)<<29, int64(9))
	f.Add(int64(6), int64(4), int64(10), int64(15))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		if b == 0 || d == 0 {
			return
		}
		x, err := FromFrac(a, b)
		if err != nil {
			return
		}
		y, err := FromFrac(c, d)
		if err != nil {
			return
		}
		bx, by := x.toBig(), y.toBig()
		check := func(opName string, got Rat, want *big.Rat) {
			t.Helper()
			if got.toBig().Cmp(want) != 0 {
				t.Fatalf("(%s) %s (%s) = %s, big.Rat = %s", x, opName, y, got, want.RatString())
			}
			if !got.isBig() {
				n, dd := got.parts()
				if dd <= 0 {
					t.Fatalf("(%s) %s (%s) = %d/%d: non-positive denominator", x, opName, y, n, dd)
				}
				an := n
				if an < 0 {
					an = -an
				}
				if n != 0 && gcd64(an, dd) != 1 {
					t.Fatalf("(%s) %s (%s) = %d/%d: not in lowest terms", x, opName, y, n, dd)
				}
			}
		}
		check("+", x.Add(y), new(big.Rat).Add(bx, by))
		check("-", x.Sub(y), new(big.Rat).Sub(bx, by))
		check("*", x.Mul(y), new(big.Rat).Mul(bx, by))
	})
}

// FuzzParse checks that any string Parse accepts agrees with math/big,
// which reads base-10 text the same way once leading zeros are gone (it
// reads them as an octal prefix in n/d form), and round-trips through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"0", "1", "-1", "3/4", "-3/4", "1.25", "1e3",
		"9223372036854775807", "-9223372036854775808/3", "010/3", "+007.50",
		"0x1p9999999", "123456789123456789123456789/987654321987654321"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return // rejected input: nothing to check
		}
		want, ok := new(big.Rat).SetString(stripLeadingZeros(s))
		if !ok {
			t.Fatalf("Parse accepted %q but big.Rat rejects it", s)
		}
		if r.toBig().Cmp(want) != 0 {
			t.Fatalf("Parse(%q) = %s, big.Rat = %s", s, r, want.RatString())
		}
		back, err := Parse(r.String())
		if err != nil || !back.Equal(r) {
			t.Fatalf("String round trip failed for %q → %s", s, r)
		}
	})
}

// stripLeadingZeros drops the leading zeros of every digit run in s that
// follows its start, a sign or a slash, keeping one digit of each run.
func stripLeadingZeros(s string) string {
	var b strings.Builder
	start := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if start && c == '0' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
			continue
		}
		start = c == '-' || c == '+' || c == '/'
		b.WriteByte(c)
	}
	return b.String()
}
