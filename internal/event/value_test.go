package event

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := String("abc"); v.Kind() != KindString || v.Str() != "abc" {
		t.Errorf("String: got %v", v)
	}
	if v := Int(-42); v.Kind() != KindInt || v.Int64() != -42 || v.Float64() != -42 {
		t.Errorf("Int: got %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.Float64() != 2.5 {
		t.Errorf("Float: got %v", v)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull {
		t.Errorf("zero Value should be null, got %v", zero)
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Str on int", func() { Int(1).Str() }},
		{"Int64 on string", func() { String("x").Int64() }},
		{"Float64 on string", func() { String("x").Float64() }},
		{"Int64 on float", func() { Float(1).Int64() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			c.f()
		})
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Int(2), Float(2.0), 0},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{String("ba"), String("b"), 1},
		{Value{}, Value{}, 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): unexpected error %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparable(t *testing.T) {
	bad := [][2]Value{
		{String("1"), Int(1)},
		{Int(1), String("1")},
		{Value{}, Int(0)},
		{String(""), Value{}},
	}
	for _, pair := range bad {
		if _, err := Compare(pair[0], pair[1]); err == nil {
			t.Errorf("Compare(%v, %v): expected error", pair[0], pair[1])
		}
		if Comparable(pair[0], pair[1]) {
			t.Errorf("Comparable(%v, %v) = true, want false", pair[0], pair[1])
		}
	}
	if !Comparable(Int(1), Float(1)) || !Comparable(String("a"), String("b")) {
		t.Errorf("Comparable should accept same or numeric kinds")
	}
}

func TestEqual(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Errorf("Int(2) should equal Float(2)")
	}
	if String("1").Equal(Int(1)) {
		t.Errorf("String should not equal Int")
	}
}

func TestCompareNaNUnordered(t *testing.T) {
	nan := Float(math.NaN())
	pairs := [][2]Value{
		{nan, Float(1)}, {Float(1), nan},
		{nan, nan},
		{nan, Int(1)}, {Int(1), nan},
		{nan, Float(math.Inf(1))}, {Float(math.Inf(-1)), nan},
	}
	for _, p := range pairs {
		if _, err := Compare(p[0], p[1]); !errors.Is(err, ErrUnordered) {
			t.Errorf("Compare(%v, %v): want ErrUnordered, got %v", p[0], p[1], err)
		}
	}
	if nan.Equal(nan) {
		t.Errorf("NaN must not equal NaN")
	}
	if nan.Equal(Int(1)) || Int(1).Equal(nan) || nan.Equal(Float(1)) {
		t.Errorf("NaN must not equal any number")
	}
	// Incomparable kinds carry the other sentinel.
	if _, err := Compare(String("x"), Int(1)); !errors.Is(err, ErrIncomparable) {
		t.Errorf("string vs int: want ErrIncomparable, got %v", err)
	}
	if _, err := Compare(String("x"), nan); !errors.Is(err, ErrIncomparable) {
		t.Errorf("string vs NaN: kind mismatch dominates, got %v", err)
	}
}

func TestCompareIntFloatExact(t *testing.T) {
	const two63 = 9223372036854775808.0
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		// The regression from the issue: 2^53+1 vs 2^53 as a float.
		{9007199254740993, 9007199254740992.0, 1},
		{9007199254740992, 9007199254740992.0, 0},
		{9007199254740991, 9007199254740992.0, -1},
		// Range clamps: 2^63 and beyond are above every int64.
		{math.MaxInt64, two63, -1},
		{math.MaxInt64, math.Nextafter(two63, 0), 1}, // largest float < 2^63
		{math.MaxInt64, math.Inf(1), -1},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MinInt64, -two63, 0}, // -2^63 is exactly MinInt64
		{math.MinInt64, math.Nextafter(-two63, math.Inf(-1)), 1},
		// Fractional tie-breaks around truncation, both signs.
		{0, 0.5, -1}, {0, -0.5, 1},
		{2, 2.5, -1}, {3, 2.5, 1},
		{-2, -2.5, 1}, {-3, -2.5, -1},
		{1 << 60, float64(int64(1) << 60), 0},
		{1<<60 + 1, float64(int64(1) << 60), 1},
	}
	for _, c := range cases {
		if got := CompareIntFloat(c.i, c.f); got != c.want {
			t.Errorf("CompareIntFloat(%d, %g) = %d, want %d", c.i, c.f, got, c.want)
		}
		got, err := Compare(Int(c.i), Float(c.f))
		if err != nil || got != c.want {
			t.Errorf("Compare(Int(%d), Float(%g)) = %d, %v; want %d", c.i, c.f, got, err, c.want)
		}
		rev, err := Compare(Float(c.f), Int(c.i))
		if err != nil || rev != -c.want {
			t.Errorf("Compare(Float(%g), Int(%d)) = %d, %v; want %d", c.f, c.i, rev, err, -c.want)
		}
	}
}

func TestCompareIntFloatAgainstBigFloat(t *testing.T) {
	f := func(i int64, x float64) bool {
		if x != x {
			return true // NaN is covered by TestCompareNaNUnordered
		}
		bi := new(big.Float).SetInt64(i)
		bx := new(big.Float).SetFloat64(x)
		return CompareIntFloat(i, x) == bi.Cmp(bx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// quick rarely lands near the 2^63 boundary; sweep it explicitly.
	const two63 = 9223372036854775808.0
	for _, i := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		for _, x := range []float64{-two63, math.Nextafter(-two63, 0), math.Nextafter(two63, 0), two63, -0.0} {
			bi := new(big.Float).SetInt64(i)
			bx := new(big.Float).SetFloat64(x)
			if got, want := CompareIntFloat(i, x), bi.Cmp(bx); got != want {
				t.Errorf("CompareIntFloat(%d, %g) = %d, want %d", i, x, got, want)
			}
		}
	}
}

func TestCompareIntExactBeyondFloatPrecision(t *testing.T) {
	// 2^60 and 2^60+1 collide as float64; Int comparison must stay exact.
	a, b := Int(1<<60), Int(1<<60+1)
	if got, _ := Compare(a, b); got != -1 {
		t.Errorf("Compare(2^60, 2^60+1) = %d, want -1", got)
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := Compare(Int(a), Int(b))
		y, _ := Compare(Int(b), Int(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		x, _ := Compare(String(a), String(b))
		y, _ := Compare(String(b), String(a))
		return x == -y
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema("ID:int, L:string, V:float, U:string")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "ID:int, L:string, V:float, U:string" {
		t.Fatalf("schema = %q", got)
	}
	for _, spec := range []string{"", "ID", "ID:bogus", "ID:int,ID:int", "bad.name:int"} {
		if _, err := ParseSchema(spec); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", spec)
		}
	}
}

func TestParseTypeAndValue(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Type
	}{
		{"string", TypeString}, {"str", TypeString}, {"text", TypeString},
		{"int", TypeInt}, {"INTEGER", TypeInt}, {"int64", TypeInt},
		{"float", TypeFloat}, {"double", TypeFloat}, {" real ", TypeFloat},
	} {
		got, err := ParseType(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Errorf("ParseType(bogus): expected error")
	}

	if v, err := ParseValue(TypeInt, " 42 "); err != nil || v.Int64() != 42 {
		t.Errorf("ParseValue int: %v, %v", v, err)
	}
	if v, err := ParseValue(TypeFloat, "2.5"); err != nil || v.Float64() != 2.5 {
		t.Errorf("ParseValue float: %v, %v", v, err)
	}
	if v, err := ParseValue(TypeString, " spaced "); err != nil || v.Str() != " spaced " {
		t.Errorf("ParseValue string must not trim: %q, %v", v, err)
	}
	if _, err := ParseValue(TypeInt, "x"); err == nil {
		t.Errorf("ParseValue(int, x): expected error")
	}
	if _, err := ParseValue(TypeFloat, "x"); err == nil {
		t.Errorf("ParseValue(float, x): expected error")
	}
}

func TestValueEncodeRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		vi, _ := ParseValue(TypeInt, Int(i).Encode())
		vf, _ := ParseValue(TypeFloat, Float(fl).Encode())
		vs, _ := ParseValue(TypeString, String(s).Encode())
		return vi.Int64() == i && (vf.Float64() == fl || fl != fl) && vs.Str() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{String("x"), `"x"`},
		{Int(7), "7"},
		{Float(0.5), "0.5"},
		{Value{}, "null"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindAndTypeStrings(t *testing.T) {
	if KindString.String() != "string" || KindInt.String() != "int" ||
		KindFloat.String() != "float" || KindNull.String() != "null" {
		t.Errorf("Kind.String mismatch")
	}
	if TypeString.String() != "string" || TypeInt.String() != "int" || TypeFloat.String() != "float" {
		t.Errorf("Type.String mismatch")
	}
	if TypeString.Kind() != KindString || TypeInt.Kind() != KindInt || TypeFloat.Kind() != KindFloat {
		t.Errorf("Type.Kind mismatch")
	}
}

func TestZeroOf(t *testing.T) {
	if ZeroOf(TypeString).Str() != "" || ZeroOf(TypeInt).Int64() != 0 || ZeroOf(TypeFloat).Float64() != 0 {
		t.Errorf("ZeroOf mismatch")
	}
}
