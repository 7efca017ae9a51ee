package rat

import (
	"encoding/json"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFromInt(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{-7, "-7"},
		{math.MaxInt64, "9223372036854775807"},
		{math.MinInt64, "-9223372036854775808"},
	}
	for _, tt := range tests {
		if got := FromInt(tt.in).String(); got != tt.want {
			t.Errorf("FromInt(%d) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestFromFrac(t *testing.T) {
	tests := []struct {
		n, d    int64
		want    string
		wantErr bool
	}{
		{1, 2, "1/2", false},
		{2, 4, "1/2", false},
		{-2, 4, "-1/2", false},
		{2, -4, "-1/2", false},
		{-2, -4, "1/2", false},
		{0, 5, "0", false},
		{7, 1, "7", false},
		{1, 0, "", true},
		{math.MinInt64, 2, "-4611686018427387904", false},
		{1, math.MinInt64, "-1/9223372036854775808", false},
	}
	for _, tt := range tests {
		got, err := FromFrac(tt.n, tt.d)
		if (err != nil) != tt.wantErr {
			t.Errorf("FromFrac(%d,%d) err = %v, wantErr %v", tt.n, tt.d, err, tt.wantErr)
			continue
		}
		if err == nil && got.String() != tt.want {
			t.Errorf("FromFrac(%d,%d) = %s, want %s", tt.n, tt.d, got.String(), tt.want)
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"3/4", "3/4", false},
		{"-3/4", "-3/4", false},
		{"10", "10", false},
		{"1.25", "5/4", false},
		{"0.5", "1/2", false},
		{"+3/4", "3/4", false},
		{"-0", "0", false},
		{"010/3", "10/3", false},
		{"007.50", "15/2", false},
		{"-9223372036854775808/3", "-9223372036854775808/3", false},
		{"123456789012345678901234567890/11", "123456789012345678901234567890/11", false},
		{"", "", true},
		{"x", "", true},
		{"-", "", true},
		{"3/0", "", true},
		{"3/-4", "", true},
		{"1/2/3", "", true},
		{".5", "", true},
		{"1.", "", true},
		{"1.2.3", "", true},
		{"1e3", "", true},
		{"0x10", "", true},
		{"1_000", "", true},
		{" 1", "", true},
		{strings.Repeat("9", 100), strings.Repeat("9", 100), false},
		{strings.Repeat("9", 101), "", true},
		{"1/" + strings.Repeat("9", 101), "", true},
		{"0." + strings.Repeat("1", 99), "", false},
		{"0." + strings.Repeat("1", 100), "", true},
		{strings.Repeat("1", 1<<20), "", true},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && tt.want != "" && got.String() != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.in, got.String(), tt.want)
		}
	}
}

// TestParseRejectsExpandingInputs: inputs of a few bytes that math/big
// reads as numbers of millions of digits (a binary exponent, a decimal one)
// are outside Parse's syntax and must be refused at once, not expanded
// (expanding one takes seconds). The fastest of five calls must take under
// a millisecond, so one preemption or GC pause cannot fail the test.
func TestParseRejectsExpandingInputs(t *testing.T) {
	for _, in := range []string{"0x1p9999999", "0b1p9999999", "1e-999999"} {
		fastest := time.Hour
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := Parse(in); err == nil {
				t.Fatalf("Parse(%q) accepted an input outside its syntax", in)
			}
			fastest = min(fastest, time.Since(start))
		}
		if fastest > time.Millisecond {
			t.Errorf("Parse(%q) took %v to refuse, want under 1 ms", in, fastest)
		}
	}
}

func TestZeroValue(t *testing.T) {
	var z Rat
	if !z.IsZero() {
		t.Error("zero value is not zero")
	}
	if got := z.Add(FromInt(3)); !got.Equal(FromInt(3)) {
		t.Errorf("0 + 3 = %s", got)
	}
	if got := z.Mul(FromInt(3)); !got.IsZero() {
		t.Errorf("0 * 3 = %s", got)
	}
	if z.String() != "0" {
		t.Errorf("zero String = %q", z.String())
	}
	if z.Sign() != 0 {
		t.Errorf("zero Sign = %d", z.Sign())
	}
}

func TestArithmeticBasics(t *testing.T) {
	half := MustFrac(1, 2)
	third := MustFrac(1, 3)
	tests := []struct {
		name string
		got  Rat
		want string
	}{
		{"half+third", half.Add(third), "5/6"},
		{"half-third", half.Sub(third), "1/6"},
		{"half*third", half.Mul(third), "1/6"},
		{"half/third", half.Div(third), "3/2"},
		{"neg", half.Neg(), "-1/2"},
		{"abs", half.Neg().Abs(), "1/2"},
		{"inv", MustFrac(-2, 3).Inv(), "-3/2"},
	}
	for _, tt := range tests {
		if tt.got.String() != tt.want {
			t.Errorf("%s = %s, want %s", tt.name, tt.got, tt.want)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv of zero did not panic")
		}
	}()
	_ = Rat{}.Inv()
}

func TestBigFallbackAndDemotion(t *testing.T) {
	// Exceed the fast path, then come back.
	huge := FromInt(1 << 40)
	x := huge.Mul(huge) // 2^80, must go big
	if !x.isBig() {
		t.Fatalf("2^80 should use the big representation")
	}
	back := x.Div(huge).Div(huge)
	if !back.Equal(FromInt(1)) {
		t.Errorf("2^80 / 2^40 / 2^40 = %s, want 1", back)
	}
	if back.isBig() {
		t.Errorf("result of demotion should be small")
	}
}

func TestCmpAcrossRepresentations(t *testing.T) {
	big1 := FromInt(1 << 40).Mul(FromInt(1 << 40)) // 2^80
	small1 := FromInt(5)
	if big1.Cmp(small1) != 1 {
		t.Error("2^80 should compare greater than 5")
	}
	if small1.Cmp(big1) != -1 {
		t.Error("5 should compare less than 2^80")
	}
	if big1.Cmp(big1.Add(Rat{})) != 0 {
		t.Error("2^80 should equal itself")
	}
}

func TestFloorCeil(t *testing.T) {
	tests := []struct {
		in         Rat
		floor, cel int64
	}{
		{MustFrac(7, 2), 3, 4},
		{MustFrac(-7, 2), -4, -3},
		{FromInt(5), 5, 5},
		{FromInt(-5), -5, -5},
		{MustFrac(1, 3), 0, 1},
		{MustFrac(-1, 3), -1, 0},
		{Rat{}, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.in.Floor(); got != tt.floor {
			t.Errorf("Floor(%s) = %d, want %d", tt.in, got, tt.floor)
		}
		if got := tt.in.Ceil(); got != tt.cel {
			t.Errorf("Ceil(%s) = %d, want %d", tt.in, got, tt.cel)
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := MustFrac(1, 3), MustFrac(1, 2)
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Error("Max wrong")
	}
}

func TestIsInt(t *testing.T) {
	if !FromInt(3).IsInt() {
		t.Error("3 should be an integer")
	}
	if MustFrac(1, 2).IsInt() {
		t.Error("1/2 should not be an integer")
	}
	if !(Rat{}).IsInt() {
		t.Error("0 should be an integer")
	}
}

func TestFloat64(t *testing.T) {
	if got := MustFrac(1, 2).Float64(); got != 0.5 {
		t.Errorf("Float64(1/2) = %v", got)
	}
	if got := FromInt(-3).Float64(); got != -3 {
		t.Errorf("Float64(-3) = %v", got)
	}
}

func TestNumDen(t *testing.T) {
	r := MustFrac(-6, 8)
	n, ok := r.Num()
	if !ok || n != -3 {
		t.Errorf("Num = %d,%v want -3,true", n, ok)
	}
	d, ok := r.Den()
	if !ok || d != 4 {
		t.Errorf("Den = %d,%v want 4,true", d, ok)
	}
}

// ---- property tests against math/big reference ----

// qr is a quick-check generatable rational.
type qr struct {
	N int64
	D int64
}

func (q qr) rat() Rat {
	d := q.D
	if d == 0 {
		d = 1
	}
	r, err := FromFrac(q.N, d)
	if err != nil {
		panic(err)
	}
	return r
}

func (q qr) big() *big.Rat {
	d := q.D
	if d == 0 {
		d = 1
	}
	return new(big.Rat).SetFrac(big.NewInt(q.N), big.NewInt(d))
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 2000}
}

func TestQuickAddMatchesBig(t *testing.T) {
	f := func(x, y qr) bool {
		got := x.rat().Add(y.rat())
		want := new(big.Rat).Add(x.big(), y.big())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickSubMatchesBig(t *testing.T) {
	f := func(x, y qr) bool {
		got := x.rat().Sub(y.rat())
		want := new(big.Rat).Sub(x.big(), y.big())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesBig(t *testing.T) {
	f := func(x, y qr) bool {
		got := x.rat().Mul(y.rat())
		want := new(big.Rat).Mul(x.big(), y.big())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickDivMatchesBig(t *testing.T) {
	f := func(x, y qr) bool {
		if y.rat().IsZero() {
			return true
		}
		got := x.rat().Div(y.rat())
		want := new(big.Rat).Quo(x.big(), y.big())
		return got.toBig().Cmp(want) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpMatchesBig(t *testing.T) {
	f := func(x, y qr) bool {
		return x.rat().Cmp(y.rat()) == x.big().Cmp(y.big())
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickNegAbsInvolution(t *testing.T) {
	f := func(x qr) bool {
		r := x.rat()
		if !r.Neg().Neg().Equal(r) {
			return false
		}
		if r.Abs().Sign() < 0 {
			return false
		}
		return r.Abs().Equal(r) || r.Abs().Equal(r.Neg())
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickAddAssociativeCommutative(t *testing.T) {
	f := func(x, y, z qr) bool {
		a, b, c := x.rat(), y.rat(), z.rat()
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributesOverAdd(t *testing.T) {
	f := func(x, y, z qr) bool {
		a, b, c := x.rat(), y.rat(), z.rat()
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorMatchesBig(t *testing.T) {
	f := func(x qr) bool {
		r := x.rat()
		fl := r.Floor()
		// fl <= r < fl+1
		return FromInt(fl).LessEq(r) && r.Less(FromInt(fl).Add(FromInt(1)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(x qr) bool {
		r := x.rat()
		back, err := Parse(r.String())
		return err == nil && back.Equal(r)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddFastPath(b *testing.B) {
	x, y := MustFrac(355, 113), MustFrac(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkAddBigPath(b *testing.B) {
	x := FromInt(1 << 40).Mul(FromInt(1 << 40))
	y := MustFrac(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkCmpFastPath(b *testing.B) {
	x, y := MustFrac(355, 113), MustFrac(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

func TestTextMarshaling(t *testing.T) {
	type payload struct {
		When Rat `json:"when"`
	}
	in := payload{When: MustFrac(7, 3)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"when":"7/3"}` {
		t.Errorf("marshal = %s", data)
	}
	var out payload
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.When.Equal(in.When) {
		t.Errorf("round trip = %s", out.When)
	}
	if err := json.Unmarshal([]byte(`{"when":"zzz"}`), &out); err == nil {
		t.Error("bad text should fail to unmarshal")
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(x qr) bool {
		r := x.rat()
		data, err := r.MarshalText()
		if err != nil {
			return false
		}
		var back Rat
		if err := back.UnmarshalText(data); err != nil {
			return false
		}
		return back.Equal(r)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
