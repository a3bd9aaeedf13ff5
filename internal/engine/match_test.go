package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

func TestMatchAccessors(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	var m Match
	for _, cand := range matches {
		if strings.HasPrefix(cand.String(), "{c/e0") {
			m = cand
		}
	}
	if m.EventCount() != 5 {
		t.Fatalf("EventCount = %d for %s", m.EventCount(), m)
	}
	evs := m.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			t.Errorf("Events() not ordered: %v", evs)
		}
	}
	if m.First >= m.Last {
		t.Errorf("First %d >= Last %d", m.First, m.Last)
	}
	// Group binding p+ holds two chronologically ordered events.
	for _, b := range m.Bindings {
		if b.Var == "p" {
			if !b.Group || len(b.Events) != 2 || b.Events[0].Seq != 3 || b.Events[1].Seq != 8 {
				t.Errorf("p binding = %+v", b)
			}
		}
	}
}

func TestDedup(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	matches, _, err := Run(a, rel(t, "A@0", "B@1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
	doubled := append(append([]Match{}, matches...), matches...)
	if got := Dedup(doubled); len(got) != 1 {
		t.Errorf("Dedup kept %d", len(got))
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Errorf("Dedup(nil) = %v", got)
	}
}

func TestFilterMaximalDropsSubsets(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture a proper subset of the patient-1 match with the same
	// start time by dropping one p+ event.
	var full, sub Match
	for _, m := range matches {
		if strings.HasPrefix(m.String(), "{c/e0") {
			full = m
		}
	}
	sub = Match{First: full.First, Last: full.Last}
	for _, b := range full.Bindings {
		nb := Binding{Var: b.Var, Group: b.Group, Events: b.Events}
		if b.Var == "p" {
			nb.Events = b.Events[:1]
		}
		sub.Bindings = append(sub.Bindings, nb)
	}
	in := append([]Match{sub}, matches...)
	out := FilterMaximal(in)
	if len(out) != len(matches) {
		t.Fatalf("FilterMaximal kept %d of %d", len(out), len(in))
	}
	for _, m := range out {
		if m.String() == sub.String() {
			t.Errorf("subset match survived")
		}
	}
}

func TestFilterMaximalKeepsDistinctStarts(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	// The e7-start match is a "subset-looking" result of the e6-start
	// match but has a different start time, so it must survive.
	out := FilterMaximal(matches)
	if !sameMatchSet(matches, out) {
		t.Errorf("FilterMaximal dropped matches with distinct starts:\n%v\n%v",
			matchStrings(matches), matchStrings(out))
	}
}

// TestOperationalMaximality is the property backing the DESIGN.md
// claim: under the paper's assumption that T is a strict total order
// (no tied timestamps), the skip-till-next-match algorithm never emits
// two matches where one is a proper subset of another with the same
// start time. Randomised over patterns with overlapping conditions and
// group variables.
func TestOperationalMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	types := []string{"P", "Q"}
	for trial := 0; trial < 120; trial++ {
		b := pattern.New()
		nsets := 1 + rng.Intn(2)
		name := 'a'
		for i := 0; i < nsets; i++ {
			var vars []pattern.Variable
			nvars := 1 + rng.Intn(2)
			for j := 0; j < nvars; j++ {
				v := pattern.Var(string(name))
				if rng.Intn(2) == 0 {
					v = pattern.Plus(string(name))
				}
				vars = append(vars, v)
				b.WhereConst(v.Name, "L", pattern.Eq, event.String(types[rng.Intn(len(types))]))
				name++
			}
			b.Set(vars...)
		}
		p := b.Within(event.Duration(3 + rng.Intn(10))).MustBuild()
		a := compile(t, p, simpleSchema())

		r := event.NewRelation(simpleSchema())
		tt := event.Time(0)
		for n := 0; n < 14; n++ {
			tt += event.Time(1 + rng.Intn(3)) // strictly increasing: total order
			r.MustAppend(tt, event.Int(1), event.String(types[rng.Intn(len(types))]), event.Float(0))
		}
		r.SortByTime()

		matches, _, err := Run(a, r, WithMaxInstances(100000))
		if err != nil {
			t.Fatal(err)
		}
		filtered := FilterMaximal(matches)
		if !sameMatchSet(matches, filtered) {
			t.Fatalf("trial %d: operational algorithm emitted a proper subset match\npattern:\n%s\nmatches: %v",
				trial, p, matchStrings(matches))
		}
	}
}

// TestEveryMatchSatisfiesDefinition re-checks conditions 1-3 of
// Definition 2 declaratively on every match of randomised runs.
func TestEveryMatchSatisfiesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		within := event.Duration(4 + rng.Intn(8))
		p := pattern.New().
			Set(pattern.Var("x"), pattern.Plus("y")).
			Set(pattern.Var("z")).
			WhereConst("x", "L", pattern.Eq, event.String("P")).
			WhereConst("y", "L", pattern.Eq, event.String("P")).
			WhereConst("z", "L", pattern.Eq, event.String("Q")).
			WhereVars("x", "ID", pattern.Eq, "y", "ID").
			Within(within).MustBuild()
		a := compile(t, p, simpleSchema())

		r := event.NewRelation(simpleSchema())
		tt := event.Time(0)
		for n := 0; n < 16; n++ {
			tt += event.Time(rng.Intn(3))
			l := "P"
			if rng.Intn(3) == 0 {
				l = "Q"
			}
			r.MustAppend(tt, event.Int(1+int64(rng.Intn(2))), event.String(l), event.Float(0))
		}
		r.SortByTime()

		matches, _, err := Run(a, r, WithMaxInstances(100000))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			byVar := map[string][]*event.Event{}
			for _, bd := range m.Bindings {
				byVar[bd.Var] = bd.Events
			}
			// Condition 1: all instantiated conditions hold.
			for _, x := range byVar["x"] {
				if x.Attrs[1].Str() != "P" {
					t.Fatalf("x bound to %v", x)
				}
				for _, y := range byVar["y"] {
					if y.Attrs[1].Str() != "P" || y.Attrs[0].Int64() != x.Attrs[0].Int64() {
						t.Fatalf("condition violated: x=%v y=%v", x, y)
					}
				}
			}
			for _, z := range byVar["z"] {
				if z.Attrs[1].Str() != "Q" {
					t.Fatalf("z bound to %v", z)
				}
			}
			// Condition 2: V1 strictly before V2.
			for _, z := range byVar["z"] {
				for _, v1 := range append(byVar["x"], byVar["y"]...) {
					if v1.Time >= z.Time {
						t.Fatalf("inter-set order violated: %v !< %v in %s", v1, z, m)
					}
				}
			}
			// Condition 3: within τ.
			if event.Duration(m.Last-m.First) > within {
				t.Fatalf("match spans %d > %d", m.Last-m.First, within)
			}
			// Cardinalities: singletons bind exactly one event, groups
			// at least one.
			if len(byVar["x"]) != 1 || len(byVar["z"]) != 1 || len(byVar["y"]) < 1 {
				t.Fatalf("binding cardinalities wrong: %s", m)
			}
			// Events are pairwise distinct.
			seen := map[int]bool{}
			for _, e := range m.Events() {
				if seen[e.Seq] {
					t.Fatalf("event bound twice: %s", m)
				}
				seen[e.Seq] = true
			}
		}
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{EventsProcessed: 5, Matches: 2}
	s := m.String()
	if !strings.Contains(s, "events=5") || !strings.Contains(s, "matches=2") {
		t.Errorf("Metrics.String = %q", s)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{EventsProcessed: 1, Matches: 2, MaxSimultaneousInstances: 3}
	b := Metrics{EventsProcessed: 10, Matches: 20, MaxSimultaneousInstances: 30}
	a.Add(b)
	if a.EventsProcessed != 11 || a.Matches != 22 || a.MaxSimultaneousInstances != 33 {
		t.Errorf("Add = %+v", a)
	}
}

// BenchmarkFilterMaximal measures the subset-elimination pass on a
// worst-case input: runs of matches sharing a start time where each
// match's binding set is a prefix of the next one's, so every pair is
// actually compared and the subset relation holds for half of them.
func BenchmarkFilterMaximal(b *testing.B) {
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	evs := make([]*event.Event, 64)
	for i := range evs {
		evs[i] = &event.Event{Time: event.Time(i), Seq: i}
	}
	var matches []Match
	for g := 0; g < 64; g++ {
		for k := 1; k <= len(vars); k++ {
			binds := make([]Binding, k)
			for v := 0; v < k; v++ {
				binds[v] = Binding{Var: vars[v], Events: []*event.Event{evs[(g+v)%len(evs)]}}
			}
			matches = append(matches, Match{Bindings: binds, First: event.Time(g), Last: event.Time(g + k)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := FilterMaximal(matches); len(got) != 64 {
			b.Fatalf("survivors = %d, want one maximal match per group", len(got))
		}
	}
}
