// Package rat implements exact rational arithmetic for simulated time.
//
// The gradient-clock-synchronization lower-bound constructions (Fan & Lynch,
// PODC 2004) depend on *exact* equalities between remapped event times and
// hardware-clock readings: execution β is indistinguishable from execution α
// only if H_i^α(T_α(π)) = H_i^β(T_β(π)) holds exactly for every action π.
// Floating point would turn those equalities into epsilon comparisons and
// could reorder simultaneous events, so all simulated time in this repository
// is rational.
//
// Rat is an immutable value type. The common case (numerator and denominator
// fitting comfortably in int64) runs allocation-free; results that overflow
// the fast path transparently fall back to math/big and are demoted back to
// the fast representation whenever they fit again.
package rat

import (
	"fmt"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number. The zero value is 0.
//
// Invariants when b == nil: den > 0 and gcd(|num|, den) == 1, except that the
// zero value is stored as num == 0, den == 0 and is interpreted as 0/1.
// When b != nil the value lives in b (normalized by math/big) and num/den are
// meaningless.
type Rat struct {
	num int64
	den int64
	b   *big.Rat
}

// fastLimit bounds operand magnitude for the allocation-free paths: products
// of two operands stay below 2^60 and sums of two such products below 2^61,
// so no intermediate overflows int64.
const fastLimit = int64(1) << 30

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	if n == 0 {
		return Rat{}
	}
	return Rat{num: n, den: 1}
}

// FromFrac returns the rational n/d in lowest terms.
// It reports an error when d == 0.
func FromFrac(n, d int64) (Rat, error) {
	if d == 0 {
		return Rat{}, fmt.Errorf("rat: zero denominator in %d/%d", n, d)
	}
	if d == minInt64 || n == minInt64 {
		// Negation/abs of math.MinInt64 overflows; route through big.
		return fromBig(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))), nil
	}
	if d < 0 {
		n, d = -n, -d
	}
	return normSmall(n, d), nil
}

// MustFrac is FromFrac for constant operands; it panics on a zero
// denominator, which is a programming error.
func MustFrac(n, d int64) Rat {
	r, err := FromFrac(n, d)
	if err != nil {
		panic(err)
	}
	return r
}

// maxDigits caps the digits of the numerator and of the denominator Parse
// reads, a decimal i.f counting as the fraction (i f)/10^len(f). Values the
// program writes have a dozen digits or so, and String of any accepted value
// is itself accepted; what the cap rules out is a short string that expands
// into a number whose printing or arithmetic takes seconds. It also keeps
// the longest input worth fuzzing short (see FuzzParse).
const maxDigits = 100

// Parse parses a base-10 rational: "n", "n/d" or a decimal "i.f", each with
// an optional sign ("-3/4", "+1.25"). Leading zeros are decimal ("010/3" is
// 10/3). The numerator and the denominator may each have at most 100
// digits (i.f counts as (i f)/10^len(f)). Anything else is an error:
// exponents, base prefixes, underscores, spaces, a zero denominator.
func Parse(s string) (Rat, error) {
	if len(s) > 2*maxDigits+2 {
		return Rat{}, parseError(s)
	}
	body, neg := s, false
	if body != "" && (body[0] == '-' || body[0] == '+') {
		body, neg = body[1:], body[0] == '-'
	}
	num, den := body, "1"
	if i := strings.IndexAny(body, "/."); i >= 0 {
		num, den = body[:i], body[i+1:]
		if body[i] == '.' {
			if !isDigits(num) || !isDigits(den) {
				return Rat{}, parseError(s)
			}
			num, den = num+den, "1"+strings.Repeat("0", len(den))
		}
	}
	if !isDigits(num) || !isDigits(den) || strings.Trim(den, "0") == "" {
		return Rat{}, parseError(s)
	}
	n, _ := new(big.Int).SetString(num, 10)
	d, _ := new(big.Int).SetString(den, 10)
	if neg {
		n.Neg(n)
	}
	return fromBig(new(big.Rat).SetFrac(n, d)), nil
}

// isDigits reports whether s is 1 to maxDigits decimal digits.
func isDigits(s string) bool {
	if s == "" || len(s) > maxDigits {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseError reports a string Parse rejects, quoting at most its first 40
// bytes.
func parseError(s string) error {
	if len(s) > 40 {
		return fmt.Errorf("rat: cannot parse %q… (%d bytes)", s[:40], len(s))
	}
	return fmt.Errorf("rat: cannot parse %q", s)
}

// MustParse is Parse for trusted constant inputs; it panics on a syntax
// error, which is a programming error.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

const minInt64 = -1 << 63

// parts returns the fast-path numerator and denominator, mapping the zero
// value to 0/1. Only valid when r.b == nil.
func (r Rat) parts() (int64, int64) {
	if r.den == 0 {
		return 0, 1
	}
	return r.num, r.den
}

func (r Rat) isBig() bool { return r.b != nil }

// toBig returns the value as a big.Rat. The result must not be mutated when
// it aliases r's internal representation.
func (r Rat) toBig() *big.Rat {
	if r.b != nil {
		return r.b
	}
	n, d := r.parts()
	return new(big.Rat).SetFrac64(n, d)
}

// fromBig converts a big.Rat into a Rat, demoting to the fast representation
// when the normalized numerator and denominator fit in int64. fromBig takes
// ownership of b.
func fromBig(b *big.Rat) Rat {
	if b.Num().IsInt64() && b.Denom().IsInt64() {
		n, d := b.Num().Int64(), b.Denom().Int64()
		if d != 0 { // big.Rat guarantees d >= 1
			if n == 0 {
				return Rat{}
			}
			return Rat{num: n, den: d}
		}
	}
	return Rat{b: b}
}

// gcd64 returns the greatest common divisor of non-negative x and y.
func gcd64(x, y int64) int64 {
	for y != 0 {
		x, y = y, x%y
	}
	return x
}

// normSmall reduces n/d (d > 0, both within int64 with no overflow pending)
// to lowest terms.
func normSmall(n, d int64) Rat {
	if n == 0 {
		return Rat{}
	}
	a := n
	if a < 0 {
		a = -a
	}
	if g := gcd64(a, d); g > 1 {
		n /= g
		d /= g
	}
	return Rat{num: n, den: d}
}

func small(v int64) bool { return v > -fastLimit && v < fastLimit }

// Add returns r + o.
func (r Rat) Add(o Rat) Rat {
	if !r.isBig() && !o.isBig() {
		a, b := r.parts()
		c, d := o.parts()
		if small(a) && small(b) && small(c) && small(d) {
			return addSmall(a, b, c, d)
		}
	}
	return fromBig(new(big.Rat).Add(r.toBig(), o.toBig()))
}

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat {
	if !r.isBig() && !o.isBig() {
		a, b := r.parts()
		c, d := o.parts()
		if small(a) && small(b) && small(c) && small(d) {
			return addSmall(a, b, -c, d)
		}
	}
	return fromBig(new(big.Rat).Sub(r.toBig(), o.toBig()))
}

// addSmall adds a/b + c/d, both in lowest terms with 0 < b, d < 2^30 and
// |a|, |c| < 2^30, so no intermediate overflows int64. It follows Knuth
// (TAOCP 4.5.1): with g = gcd(b, d), the only factor the wide sum can share
// with the denominator divides g — so when g == 1 (coprime denominators,
// and in particular every integer operand) the sum is already in lowest
// terms and no gcd of the wide products is computed at all. This is the
// engine's hottest arithmetic, called once or more per simulated event.
func addSmall(a, b, c, d int64) Rat {
	g := gcd64(b, d)
	if g == 1 {
		n := a*d + c*b
		if n == 0 {
			return Rat{}
		}
		return Rat{num: n, den: b * d}
	}
	// b = g·b', d = g·d' with gcd(b', d') = 1: the sum is t/(b'·d'·g) with
	// t coprime to b' and d', so only g2 = gcd(|t|, g) remains to cancel.
	dg := d / g
	t := a*dg + c*(b/g)
	if t == 0 {
		return Rat{}
	}
	at := t
	if at < 0 {
		at = -at
	}
	g2 := gcd64(at, g)
	return Rat{num: t / g2, den: (b / g2) * dg}
}

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat {
	if !r.isBig() && !o.isBig() {
		a, b := r.parts()
		c, d := o.parts()
		// Cross-reduce first so products of already-reduced operands stay
		// small in the common case.
		aa, cc := a, c
		if aa < 0 {
			aa = -aa
		}
		if cc < 0 {
			cc = -cc
		}
		if g := gcd64(aa, d); g > 1 {
			a /= g
			d /= g
		}
		if g := gcd64(cc, b); g > 1 {
			c /= g
			b /= g
		}
		if small(a) && small(b) && small(c) && small(d) {
			// After cross-reduction a⊥d and c⊥b (and a⊥b, c⊥d as reduced
			// inputs), so a·c / (b·d) is already in lowest terms.
			n := a * c
			if n == 0 {
				return Rat{}
			}
			return Rat{num: n, den: b * d}
		}
	}
	return fromBig(new(big.Rat).Mul(r.toBig(), o.toBig()))
}

// Div returns r / o. Division by zero is a programming error and panics,
// matching math/big.Rat semantics.
func (r Rat) Div(o Rat) Rat {
	return r.Mul(o.Inv())
}

// Inv returns 1/r. It panics when r is zero, matching math/big.Rat semantics.
func (r Rat) Inv() Rat {
	if r.IsZero() {
		panic("rat: division by zero")
	}
	if !r.isBig() {
		n, d := r.parts()
		if n < 0 {
			if n == minInt64 {
				return fromBig(new(big.Rat).Inv(r.toBig()))
			}
			return Rat{num: -d, den: -n}
		}
		return Rat{num: d, den: n}
	}
	return fromBig(new(big.Rat).Inv(r.toBig()))
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	if !r.isBig() {
		n, d := r.parts()
		if n == 0 {
			return Rat{}
		}
		if n == minInt64 {
			return fromBig(new(big.Rat).Neg(r.toBig()))
		}
		return Rat{num: -n, den: d}
	}
	return fromBig(new(big.Rat).Neg(r.toBig()))
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.Sign() < 0 {
		return r.Neg()
	}
	return r
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	if r.isBig() {
		return r.b.Sign()
	}
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Cmp compares r and o, returning -1, 0, or +1.
func (r Rat) Cmp(o Rat) int {
	if !r.isBig() && !o.isBig() {
		a, b := r.parts()
		c, d := o.parts()
		return cmpCross(a, b, c, d)
	}
	return r.toBig().Cmp(o.toBig())
}

// cmpCross compares a/b with c/d for b, d > 0 using 128-bit intermediates.
func cmpCross(a, b, c, d int64) int {
	// Compare a*d with c*b.
	sa, sc := sign64(a), sign64(c)
	if sa != sc {
		if sa < sc {
			return -1
		}
		return 1
	}
	if sa == 0 {
		return 0
	}
	ad := mag128(a, d)
	cb := mag128(c, b)
	cmp := ad.cmp(cb)
	if sa < 0 {
		return -cmp
	}
	return cmp
}

func sign64(v int64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

type u128 struct{ hi, lo uint64 }

// mag128 returns |x|*|y| as an unsigned 128-bit value.
func mag128(x, y int64) u128 {
	ux := uint64(x)
	if x < 0 {
		ux = -uint64(x)
	}
	uy := uint64(y)
	if y < 0 {
		uy = -uint64(y)
	}
	hi, lo := bits.Mul64(ux, uy)
	return u128{hi: hi, lo: lo}
}

func (u u128) cmp(v u128) int {
	switch {
	case u.hi != v.hi:
		if u.hi < v.hi {
			return -1
		}
		return 1
	case u.lo != v.lo:
		if u.lo < v.lo {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Equal reports whether r == o.
func (r Rat) Equal(o Rat) bool { return r.Cmp(o) == 0 }

// Less reports whether r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// LessEq reports whether r <= o.
func (r Rat) LessEq(o Rat) bool { return r.Cmp(o) <= 0 }

// Greater reports whether r > o.
func (r Rat) Greater(o Rat) bool { return r.Cmp(o) > 0 }

// GreaterEq reports whether r >= o.
func (r Rat) GreaterEq(o Rat) bool { return r.Cmp(o) >= 0 }

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.Sign() == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool {
	if r.isBig() {
		return r.b.IsInt()
	}
	_, d := r.parts()
	return d == 1
}

// Min returns the smaller of r and o.
func Min(r, o Rat) Rat {
	if r.Cmp(o) <= 0 {
		return r
	}
	return o
}

// Max returns the larger of r and o.
func Max(r, o Rat) Rat {
	if r.Cmp(o) >= 0 {
		return r
	}
	return o
}

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 {
	if r.isBig() {
		q := new(big.Int).Quo(r.b.Num(), r.b.Denom())
		if r.b.Sign() < 0 && !r.b.IsInt() {
			q.Sub(q, big.NewInt(1))
		}
		return q.Int64()
	}
	n, d := r.parts()
	q := n / d
	if n%d != 0 && n < 0 {
		q--
	}
	return q
}

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	f := r.Floor()
	if r.Equal(FromInt(f)) {
		return f
	}
	return f + 1
}

// Float64 returns the nearest float64 value (for reporting only; never feed
// the result back into time arithmetic).
func (r Rat) Float64() float64 {
	if !r.isBig() {
		n, d := r.parts()
		return float64(n) / float64(d)
	}
	f, _ := r.b.Float64()
	return f
}

// Num returns the normalized numerator and whether it fits in int64.
func (r Rat) Num() (int64, bool) {
	if r.isBig() {
		if r.b.Num().IsInt64() {
			return r.b.Num().Int64(), true
		}
		return 0, false
	}
	n, _ := r.parts()
	return n, true
}

// Den returns the normalized denominator (always positive) and whether it
// fits in int64.
func (r Rat) Den() (int64, bool) {
	if r.isBig() {
		if r.b.Denom().IsInt64() {
			return r.b.Denom().Int64(), true
		}
		return 0, false
	}
	_, d := r.parts()
	return d, true
}

// String renders r as "n" or "n/d". It is on the simulator's hot path
// (message payload canonicalization), hence strconv rather than fmt.
func (r Rat) String() string {
	if r.isBig() {
		if r.b.IsInt() {
			return r.b.Num().String()
		}
		return r.b.RatString()
	}
	n, d := r.parts()
	if d == 1 {
		return strconv.FormatInt(n, 10)
	}
	var buf [41]byte // len("-9223372036854775808/9223372036854775807")
	out := strconv.AppendInt(buf[:0], n, 10)
	out = append(out, '/')
	out = strconv.AppendInt(out, d, 10)
	return string(out)
}

// Key returns a canonical string usable as a map key. Rat itself must not be
// used as a map key because the big fallback makes == identity-based.
func (r Rat) Key() string { return r.String() }

// MarshalText implements encoding.TextMarshaler ("n" or "n/d"), making Rat
// usable in JSON maps and config files.
func (r Rat) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, accepting the syntaxes
// Parse accepts.
func (r *Rat) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}
