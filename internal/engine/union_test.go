package engine

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/pattern"
)

// optionalQuery builds ⟨{a, o?}, {z}⟩ and returns its compiled
// variants.
func optionalAutomata(t *testing.T) []*automaton.Automaton {
	t.Helper()
	p := pattern.New().
		Set(pattern.Var("a"), pattern.Opt("o")).
		Set(pattern.Var("z")).
		WhereConst("a", "L", pattern.Eq, event.String("A")).
		WhereConst("o", "L", pattern.Eq, event.String("O")).
		WhereConst("z", "L", pattern.Eq, event.String("Z")).
		Within(100).MustBuild()
	variants, err := pattern.ExpandOptionals(p)
	if err != nil {
		t.Fatal(err)
	}
	var autos []*automaton.Automaton
	for _, v := range variants {
		a, err := automaton.Compile(v, simpleSchema())
		if err != nil {
			t.Fatal(err)
		}
		autos = append(autos, a)
	}
	return autos
}

// TestUnionGreedyOptional: when the optional variable can bind, the
// match binding it wins; the without-variant's subset match is
// dropped by the MAXIMAL pass.
func TestUnionGreedyOptional(t *testing.T) {
	autos := optionalAutomata(t)
	matches, metrics, err := RunUnion(autos, rel(t, "A@0", "O@1", "Z@2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].String() != "{a/e0, o/e1, z/e2}" {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
	if metrics.EventsProcessed != 6 { // 3 events × 2 variants
		t.Errorf("EventsProcessed = %d", metrics.EventsProcessed)
	}
}

// TestUnionOptionalAbsent: without an O event the reduced variant
// still matches.
func TestUnionOptionalAbsent(t *testing.T) {
	autos := optionalAutomata(t)
	matches, _, err := RunUnion(autos, rel(t, "A@0", "Z@2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].String() != "{a/e0, z/e1}" {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
}

// TestUnionOptionalDifferentStarts: subset matches with different
// start times survive (they are separate results, per Definition 2).
func TestUnionOptionalDifferentStarts(t *testing.T) {
	autos := optionalAutomata(t)
	// A@0 O@1 Z@2, then a second episode at t=200 whose window holds
	// no O event: the reduced variant must cover it.
	matches, _, err := RunUnion(autos, rel(t, "A@0", "O@1", "Z@2", "A@200", "Z@202"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	if len(got) != 2 || !got["{a/e0, o/e1, z/e2}"] || !got["{a/e3, z/e4}"] {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
}

// TestUnionGreedySubsetAcrossStarts: when the optional variable binds
// BEFORE the first required event, the superset match starts earlier;
// the reduced variant's match must still be dropped (the cross-variant
// subset rule of RunUnion).
func TestUnionGreedySubsetAcrossStarts(t *testing.T) {
	autos := optionalAutomata(t)
	matches, _, err := RunUnion(autos, rel(t, "O@0", "A@1", "Z@2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].String() != "{o/e0, a/e1, z/e2}" {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
}

func TestUnionValidation(t *testing.T) {
	if _, err := NewUnion(nil); err == nil {
		t.Errorf("empty union accepted")
	}
	autos := optionalAutomata(t)
	unsorted := event.NewRelation(simpleSchema())
	unsorted.MustAppend(5, event.Int(1), event.String("A"), event.Float(0))
	unsorted.MustAppend(1, event.Int(1), event.String("Z"), event.Float(0))
	if _, _, err := RunUnion(autos, unsorted); err == nil {
		t.Errorf("unsorted relation accepted")
	}
	other := event.NewRelation(event.MustSchema(event.Field{Name: "x", Type: event.TypeInt}))
	if _, _, err := RunUnion(autos, other); err == nil {
		t.Errorf("schema mismatch accepted")
	}
}

// TestUnionStream: stepped event by event and flushed, a union emits
// both variants' matches (no cross-variant maximality on a stream); the
// consumer's FilterMaximal restores batch semantics.
func TestUnionStream(t *testing.T) {
	autos := optionalAutomata(t)
	u, err := NewUnion(autos)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	for i, l := range []string{"A", "O", "Z"} {
		e := mkEvent(event.Time(i), l)
		e.Seq = i
		ms, err := u.Step(&e)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
	}
	got = append(got, u.Flush()...)
	// The superset match must be present.
	found := false
	for _, m := range got {
		if m.String() == "{a/e0, o/e1, z/e2}" {
			found = true
		}
	}
	if !found || len(got) != 2 {
		t.Errorf("stream matches = %v", matchStrings(got))
	}
	if fm := FilterMaximal(got); len(fm) != 1 {
		t.Errorf("FilterMaximal(stream) = %v", matchStrings(fm))
	}
}

func TestUnionResetAndAccessors(t *testing.T) {
	u, err := NewUnion(optionalAutomata(t))
	if err != nil {
		t.Fatal(err)
	}
	e := event.Event{Time: 0, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	if _, err := u.Step(&e); err != nil {
		t.Fatal(err)
	}
	if u.ActiveInstances() != 2 { // one per variant
		t.Errorf("ActiveInstances = %d", u.ActiveInstances())
	}
	u.Reset()
	if u.ActiveInstances() != 0 || u.Metrics().EventsProcessed != 0 {
		t.Errorf("Reset incomplete")
	}
}
