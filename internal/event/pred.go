package event

import (
	"errors"
	"strings"
)

// This file compiles comparison predicates into kind-specialized
// closures at query-compile time, so the per-event hot path runs a
// direct int64/float64/string comparison with no kind switch and no
// error allocation. The closures are match-for-match identical to
// interpreting the predicate through Compare: on schema-valid events
// they take the specialized fast path, and on drifted events (runtime
// kind differs from the declared kind) they fall back to the full
// Compare semantics, so a compiled predicate's verdict equals Compare's
// on every input.

// PredOutcome is the tri-state result of a compiled predicate.
type PredOutcome uint8

const (
	// PredFail: the predicate evaluated and did not hold (this is also
	// the outcome for NaN operands, which order against nothing).
	PredFail PredOutcome = iota
	// PredPass: the predicate evaluated and held.
	PredPass
	// PredMismatch: the operands were of incomparable kinds — schema
	// drift, not a data-dependent miss. The predicate does not hold,
	// and callers count the occurrence separately.
	PredMismatch
)

// CmpOp is a comparison operator. It mirrors pattern.Op (Eq..Ge in the
// same order) but lives in the event package so value-level predicate
// compilation does not import the pattern AST.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// tab bakes the operator into a truth table indexed by sign+1 of a
// three-way comparison: tab[0] is the outcome for "less", tab[1] for
// "equal", tab[2] for "greater".
func (op CmpOp) tab() [3]PredOutcome {
	b := func(x bool) PredOutcome {
		if x {
			return PredPass
		}
		return PredFail
	}
	switch op {
	case CmpEq:
		return [3]PredOutcome{b(false), b(true), b(false)}
	case CmpNe:
		return [3]PredOutcome{b(true), b(false), b(true)}
	case CmpLt:
		return [3]PredOutcome{b(true), b(false), b(false)}
	case CmpLe:
		return [3]PredOutcome{b(true), b(true), b(false)}
	case CmpGt:
		return [3]PredOutcome{b(false), b(false), b(true)}
	default: // CmpGe
		return [3]PredOutcome{b(false), b(true), b(true)}
	}
}

// outcome maps a Compare result onto the truth table: errors become
// PredFail for NaN (unordered data) and PredMismatch for incomparable
// kinds (schema drift), exactly the split that reading Compare as
// "error means false" collapses.
func outcome(tab [3]PredOutcome, cmp int, err error) PredOutcome {
	if err != nil {
		if errors.Is(err, ErrUnordered) {
			return PredFail
		}
		return PredMismatch
	}
	return tab[cmp+1]
}

// CompilePred compiles "attr op const" for an attribute of declared
// kind k against the constant c into a specialized closure. The
// returned closure never allocates.
func CompilePred(k Kind, op CmpOp, c Value) func(Value) PredOutcome {
	tab := op.tab()
	// drift is the cold path for events whose runtime kind differs
	// from the declared kind: full Compare semantics keep the compiled
	// verdict equal to Compare's even off-schema.
	drift := func(v Value) PredOutcome {
		cmp, err := Compare(v, c)
		return outcome(tab, cmp, err)
	}
	switch {
	case k == KindInt && c.kind == KindInt:
		ci := c.i
		return func(v Value) PredOutcome {
			if v.kind != KindInt {
				return drift(v)
			}
			switch {
			case v.i < ci:
				return tab[0]
			case v.i > ci:
				return tab[2]
			}
			return tab[1]
		}
	case k == KindInt && c.kind == KindFloat:
		cf := c.num
		if cf != cf { // NaN constant: unordered against every int
			return func(v Value) PredOutcome {
				if v.kind != KindInt {
					return drift(v)
				}
				return PredFail
			}
		}
		return func(v Value) PredOutcome {
			if v.kind != KindInt {
				return drift(v)
			}
			return tab[CompareIntFloat(v.i, cf)+1]
		}
	case k == KindFloat && c.kind == KindFloat:
		cf := c.num
		if cf != cf {
			return func(v Value) PredOutcome {
				if v.kind != KindFloat {
					return drift(v)
				}
				return PredFail
			}
		}
		return func(v Value) PredOutcome {
			if v.kind != KindFloat {
				return drift(v)
			}
			f := v.num
			if f != f {
				return PredFail
			}
			switch {
			case f < cf:
				return tab[0]
			case f > cf:
				return tab[2]
			}
			return tab[1]
		}
	case k == KindFloat && c.kind == KindInt:
		ci := c.i
		return func(v Value) PredOutcome {
			if v.kind != KindFloat {
				return drift(v)
			}
			if v.num != v.num {
				return PredFail
			}
			return tab[-CompareIntFloat(ci, v.num)+1]
		}
	case k == KindString && c.kind == KindString:
		cs := c.str
		switch op {
		case CmpEq:
			return func(v Value) PredOutcome {
				if v.kind != KindString {
					return drift(v)
				}
				if v.str == cs {
					return PredPass
				}
				return PredFail
			}
		case CmpNe:
			return func(v Value) PredOutcome {
				if v.kind != KindString {
					return drift(v)
				}
				if v.str != cs {
					return PredPass
				}
				return PredFail
			}
		}
		return func(v Value) PredOutcome {
			if v.kind != KindString {
				return drift(v)
			}
			return tab[strings.Compare(v.str, cs)+1]
		}
	}
	// Declared kind vs constant kind admits no fast path (e.g. string
	// attribute against a numeric constant): every event goes through
	// the full semantics.
	return drift
}

// CompilePred2 compiles "attrL op attrR" for attributes of declared
// kinds lk and rk into a specialized two-operand closure. The returned
// closure never allocates.
func CompilePred2(lk, rk Kind, op CmpOp) func(a, b Value) PredOutcome {
	tab := op.tab()
	drift := func(a, b Value) PredOutcome {
		cmp, err := Compare(a, b)
		return outcome(tab, cmp, err)
	}
	switch {
	case lk == KindInt && rk == KindInt:
		return func(a, b Value) PredOutcome {
			if a.kind != KindInt || b.kind != KindInt {
				return drift(a, b)
			}
			switch {
			case a.i < b.i:
				return tab[0]
			case a.i > b.i:
				return tab[2]
			}
			return tab[1]
		}
	case lk == KindInt && rk == KindFloat:
		return func(a, b Value) PredOutcome {
			if a.kind != KindInt || b.kind != KindFloat {
				return drift(a, b)
			}
			if b.num != b.num {
				return PredFail
			}
			return tab[CompareIntFloat(a.i, b.num)+1]
		}
	case lk == KindFloat && rk == KindInt:
		return func(a, b Value) PredOutcome {
			if a.kind != KindFloat || b.kind != KindInt {
				return drift(a, b)
			}
			if a.num != a.num {
				return PredFail
			}
			return tab[-CompareIntFloat(b.i, a.num)+1]
		}
	case lk == KindFloat && rk == KindFloat:
		return func(a, b Value) PredOutcome {
			if a.kind != KindFloat || b.kind != KindFloat {
				return drift(a, b)
			}
			if a.num != a.num || b.num != b.num {
				return PredFail
			}
			switch {
			case a.num < b.num:
				return tab[0]
			case a.num > b.num:
				return tab[2]
			}
			return tab[1]
		}
	case lk == KindString && rk == KindString:
		if op == CmpEq || op == CmpNe {
			pass, fail := tab[1], tab[0] // eq outcome vs non-eq outcome
			return func(a, b Value) PredOutcome {
				if a.kind != KindString || b.kind != KindString {
					return drift(a, b)
				}
				if a.str == b.str {
					return pass
				}
				return fail
			}
		}
		return func(a, b Value) PredOutcome {
			if a.kind != KindString || b.kind != KindString {
				return drift(a, b)
			}
			return tab[strings.Compare(a.str, b.str)+1]
		}
	}
	return drift
}
