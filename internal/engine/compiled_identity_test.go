package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/automaton"
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
// contradict the schema (a string in the float attribute and so on):
// the compiled predicates must fall back to the interpreter's verdict
// on those, not diverge from it.
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

// interpreted is the test-only option selecting the event.Compare
// interpreter, the oracle the compiled predicates are checked against.
func interpreted() Option { return func(c *config) { c.interpret = true } }

// TestCompiledInterpretedIdentity is the compiled predicates'
// contract: over random patterns and adversarial streams, the compiled
// predicate path and the event.Compare interpreter must produce byte-
// identical match streams, identical filter decisions and identical
// mismatch accounting — event by event through Step, and block by
// block through StepBlock.
func TestCompiledInterpretedIdentity(t *testing.T) {
	ran := 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := randIdentityPattern(rng)
		if p == nil {
			continue
		}
		a, err := automaton.Compile(p, simpleSchema())
		if err != nil {
			continue
		}
		ran++
		evs := randIdentityEvents(rng, 80+rng.Intn(120))
		filter := rng.Intn(2) == 0

		compiled := New(a, WithFilter(filter))
		interp := New(a, WithFilter(filter), interpreted())
		blkCompiled := New(a, WithFilter(filter))
		blkInterp := New(a, WithFilter(filter), interpreted())

		var got, want, blkGot, blkWant []string
		for i := range evs {
			mc, err1 := compiled.Step(&evs[i])
			mi, err2 := interp.Step(&evs[i])
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d (%s): step %d error divergence: compiled %v, interpreted %v",
					trial, p, i, err1, err2)
			}
			got = append(got, matchStrings(mc)...)
			want = append(want, matchStrings(mi)...)
		}
		for lo := 0; lo < len(evs); {
			hi := lo + 1 + rng.Intn(40)
			if hi > len(evs) {
				hi = len(evs)
			}
			blk := event.Block{Events: evs[lo:hi]}
			mc, err1 := blkCompiled.StepBlock(blk)
			mi, err2 := blkInterp.StepBlock(blk)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d (%s): block [%d,%d) errors: %v / %v", trial, p, lo, hi, err1, err2)
			}
			blkGot = append(blkGot, matchStrings(mc)...)
			blkWant = append(blkWant, matchStrings(mi)...)
			lo = hi
		}
		for _, r := range []*Runner{compiled, interp, blkCompiled, blkInterp} {
			m := r.Flush()
			switch r {
			case compiled:
				got = append(got, matchStrings(m)...)
			case interp:
				want = append(want, matchStrings(m)...)
			case blkCompiled:
				blkGot = append(blkGot, matchStrings(m)...)
			default:
				blkWant = append(blkWant, matchStrings(m)...)
			}
		}

		diff := func(name string, g, w []string) {
			t.Helper()
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("trial %d (%s): %s match streams diverge:\ncompiled:    %v\ninterpreted: %v",
					trial, p, name, g, w)
			}
		}
		diff("Step", got, want)
		diff("StepBlock", blkGot, blkWant)
		diff("Step-vs-StepBlock", got, blkGot)

		cm, im := compiled.Metrics(), interp.Metrics()
		if cm.Matches != im.Matches || cm.EventsFiltered != im.EventsFiltered ||
			cm.CondTypeMismatches != im.CondTypeMismatches {
			t.Fatalf("trial %d (%s): metrics diverge:\ncompiled:    %+v\ninterpreted: %+v",
				trial, p, cm, im)
		}
	}
	if ran < 30 {
		t.Fatalf("only %d of 60 trials produced a compilable pattern", ran)
	}
}
