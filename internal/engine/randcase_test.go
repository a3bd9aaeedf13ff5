package engine

// Random patterns and adversarial streams shared by the engine's
// randomized suites (TestStepBlockIsStep, the keyed suites and the
// observability end-to-end test). The engine's reference for match
// sets is the Definition-2 oracle in the repository root's tests.

import (
	"math"
	"math/rand"

	"repro/internal/event"
	"repro/internal/pattern"
)

// randIdentityPattern draws a random pattern over simpleSchema: 1-3
// sets of singleton or group variables, random constant conditions on
// all three attribute types (including NaN and ±Inf float constants)
// and random variable-variable joins.
func randIdentityPattern(rng *rand.Rand) *pattern.Pattern {
	names := []string{"a", "b", "c", "d", "e", "f"}
	labels := []string{"A", "B", "C"}
	ops := []pattern.Op{pattern.Eq, pattern.Ne, pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge}
	floats := []float64{-2.5, 0, 1, 3.75, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2}

	b := pattern.New()
	var all []string
	vi := 0
	for s, nsets := 0, 1+rng.Intn(3); s < nsets; s++ {
		var vars []pattern.Variable
		for v, nv := 0, 1+rng.Intn(2); v < nv && vi < len(names); v++ {
			n := names[vi]
			vi++
			if rng.Intn(3) == 0 {
				vars = append(vars, pattern.Plus(n))
			} else {
				vars = append(vars, pattern.Var(n))
			}
			all = append(all, n)
		}
		b.Set(vars...)
	}
	for _, n := range all {
		if rng.Intn(2) == 0 {
			b.WhereConst(n, "L", pattern.Eq, event.String(labels[rng.Intn(len(labels))]))
		}
		if rng.Intn(2) == 0 {
			b.WhereConst(n, "V", ops[rng.Intn(len(ops))], event.Float(floats[rng.Intn(len(floats))]))
		}
		if rng.Intn(3) == 0 {
			b.WhereConst(n, "ID", ops[rng.Intn(len(ops))], event.Int(int64(rng.Intn(4))))
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		v1, v2 := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
		if v1 == v2 {
			continue
		}
		attr := []string{"ID", "V"}[rng.Intn(2)]
		b.WhereVars(v1, attr, ops[rng.Intn(len(ops))], v2, attr)
	}
	b.Within(event.Duration(5 + rng.Intn(50)))
	p, err := b.Build()
	if err != nil {
		return nil
	}
	return p
}

// randIdentityEvents draws a non-decreasing stream whose attribute
// values cover the comparison edge cases — NaN, ±Inf, int64 magnitudes
// past 2^53 — and, with small probability, kind-drifted values that
// contradict the schema (a string in the float attribute and so on),
// which the compiled predicates must fail and count as mismatches.
func randIdentityEvents(rng *rand.Rand, n int) []event.Event {
	labels := []string{"A", "B", "C", "X"}
	floats := []float64{-2.5, 0, 1, 3.75, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 1, -(1 << 53) - 1}
	ints := []int64{0, 1, 2, 3, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	evs := make([]event.Event, n)
	tm := event.Time(0)
	for i := range evs {
		tm += event.Time(rng.Intn(6))
		id := event.Int(ints[rng.Intn(len(ints))])
		l := event.String(labels[rng.Intn(len(labels))])
		v := event.Float(floats[rng.Intn(len(floats))])
		if rng.Intn(10) == 0 { // schema drift
			switch rng.Intn(3) {
			case 0:
				v = event.String("drift")
			case 1:
				v = event.Int(7)
			default:
				l = event.Float(1.5)
			}
		}
		evs[i] = event.Event{Seq: i, Time: tm, Attrs: []event.Value{id, l, v}}
	}
	return evs
}
