// Package event defines the event model underlying sequenced event set
// pattern matching: typed attribute values, schemas, events with a
// discrete occurrence time, and time-ordered event relations.
//
// The model follows Section 3.1 of Cadonna, Gamper, Böhlen: "Sequenced
// Event Set Pattern Matching" (EDBT 2011). An event is a tuple with
// schema E = (A1, ..., Al, T) where A1..Al are non-temporal attributes
// and T is the occurrence time drawn from a discrete, ordered time
// domain.
package event

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported attribute value kinds.
const (
	KindNull Kind = iota // zero Value; compares equal only to itself
	KindString
	KindInt
	KindFloat
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is the
// null value. Values are immutable; construct them with String, Int and
// Float.
type Value struct {
	kind Kind
	str  string
	num  float64 // numeric payload; for KindInt the exact value is in i
	i    int64
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i, num: float64(i)} }

// Float constructs a floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: f} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It panics unless v is a string value.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("event: Str called on " + v.kind.String() + " value")
	}
	return v.str
}

// Int64 returns the integer payload. It panics unless v is an int value.
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		panic("event: Int64 called on " + v.kind.String() + " value")
	}
	return v.i
}

// Float64 returns the numeric payload of an int or float value. It
// panics on strings and nulls.
func (v Value) Float64() float64 {
	if v.kind != KindInt && v.kind != KindFloat {
		panic("event: Float64 called on " + v.kind.String() + " value")
	}
	return v.num
}

// numeric reports whether v carries a numeric payload.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Comparable reports whether two values can be ordered against each
// other: equal kinds always can, and int/float mix numerically.
func Comparable(a, b Value) bool {
	if a.kind == b.kind {
		return true
	}
	return a.numeric() && b.numeric()
}

// ErrUnordered is returned by Compare when one side is a floating
// point NaN: NaN admits no order against any number, including itself,
// so predicates over it fail rather than silently treating it as equal.
var ErrUnordered = errors.New("event: NaN is unordered")

// ErrIncomparable is the sentinel wrapped by Compare errors for values
// whose kinds admit no order at all (e.g. string vs number). Callers
// distinguish it from ErrUnordered to tell schema drift from NaN data.
var ErrIncomparable = errors.New("event: incomparable kinds")

// Compare orders a against b, returning -1, 0 or +1. It returns an
// error wrapping ErrIncomparable when the values are not comparable
// (e.g. string vs number), and ErrUnordered when either side is NaN.
// Null compares equal to null and is not comparable to anything else.
// Mixed int/float comparisons are exact: an int64 outside the ±2^53
// float-exact range is never rounded through float64.
func Compare(a, b Value) (int, error) {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0, nil
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.str, b.str), nil
	case a.kind == KindInt && b.kind == KindInt:
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		}
		return 0, nil
	case a.kind == KindFloat && b.kind == KindFloat:
		if a.num != a.num || b.num != b.num {
			return 0, ErrUnordered
		}
		switch {
		case a.num < b.num:
			return -1, nil
		case a.num > b.num:
			return 1, nil
		}
		return 0, nil
	case a.kind == KindInt && b.kind == KindFloat:
		if b.num != b.num {
			return 0, ErrUnordered
		}
		return CompareIntFloat(a.i, b.num), nil
	case a.kind == KindFloat && b.kind == KindInt:
		if a.num != a.num {
			return 0, ErrUnordered
		}
		return -CompareIntFloat(b.i, a.num), nil
	}
	return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, a.kind, b.kind)
}

// CompareIntFloat orders the exact integer i against the non-NaN float
// f, returning -1, 0 or +1. Routing the comparison through float64
// would round integers beyond ±2^53 onto their neighbours (making
// 9007199254740993 compare equal to 9007199254740992.0); instead the
// float is range-clamped against ±2^63 and compared on its truncated
// integer part with the fractional remainder as tie-break, all exact
// in float64 arithmetic.
func CompareIntFloat(i int64, f float64) int {
	const two63 = 9223372036854775808.0 // 2^63, exactly representable
	if f >= two63 {
		return -1 // every int64 is below 2^63 (covers +Inf)
	}
	if f < -two63 {
		return 1 // every int64 is at least -2^63 (covers -Inf)
	}
	// -2^63 <= f < 2^63, so truncation toward zero fits in int64. For
	// |f| >= 2^53 the float is an exact integer, so t == f; below that
	// both t and the remainder f-t are exactly representable.
	t := int64(f)
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	case f > float64(t):
		return -1 // equal integer parts, f carries a positive fraction
	case f < float64(t):
		return 1 // f carries a negative fraction (trunc rounds up for f<0)
	}
	return 0
}

// Equal reports whether a and b hold the same value. Unlike Compare it
// never fails: values of incomparable kinds are simply unequal, and a
// NaN is unequal to everything including another NaN (IEEE semantics,
// consistent with Compare's ErrUnordered).
func (v Value) Equal(o Value) bool {
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string { return v.String() }

// String renders the value for display. Strings are quoted.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return strconv.Quote(v.str)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.kind))
	}
}

// Encode renders the value in its canonical text form (unquoted
// strings), the inverse of ParseValue.
func (v Value) Encode() string {
	if v.kind == KindString {
		return v.str
	}
	return v.String()
}

// Type is the static type of a schema field.
type Type uint8

// The supported field types.
const (
	TypeString Type = iota
	TypeInt
	TypeFloat
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType parses a field type name as used in CSV headers.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text":
		return TypeString, nil
	case "int", "integer", "int64":
		return TypeInt, nil
	case "float", "float64", "double", "real":
		return TypeFloat, nil
	}
	return 0, fmt.Errorf("event: unknown field type %q", s)
}

// ParseSchema parses a "name:type,name:type,..." spec, each type a
// ParseType name, into a schema.
func ParseSchema(spec string) (*Schema, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("event: empty schema spec (want name:type,...)")
	}
	var fields []Field
	for _, part := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("event: schema field %q: want name:type", part)
		}
		t, err := ParseType(typ)
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: strings.TrimSpace(name), Type: t})
	}
	return NewSchema(fields...)
}

// Kind returns the value kind produced by fields of this type.
func (t Type) Kind() Kind {
	switch t {
	case TypeString:
		return KindString
	case TypeInt:
		return KindInt
	default:
		return KindFloat
	}
}

// ParseValue parses the canonical text form of a value of type t.
func ParseValue(t Type, s string) (Value, error) {
	switch t {
	case TypeString:
		return String(s), nil
	case TypeInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("event: invalid int %q", s)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("event: invalid float %q", s)
		}
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("event: unknown type %v", t)
}

// ZeroOf returns the zero value of type t (empty string, 0, 0.0).
func ZeroOf(t Type) Value {
	switch t {
	case TypeString:
		return String("")
	case TypeInt:
		return Int(0)
	default:
		return Float(0)
	}
}
