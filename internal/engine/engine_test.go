package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// simpleSchema has a type attribute L, a join attribute ID and a
// numeric attribute V.
func simpleSchema() *event.Schema {
	return event.MustSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
		event.Field{Name: "V", Type: event.TypeFloat},
	)
}

// rel builds a relation from compact "L@t" or "L@t/id/v" specs.
func rel(t *testing.T, specs ...string) *event.Relation {
	t.Helper()
	r := event.NewRelation(simpleSchema())
	for _, s := range specs {
		var l string
		var tt event.Time
		id, v := int64(1), 0.0
		n, err := fmt.Sscanf(s, "%1s@%d/%d/%f", &l, &tt, &id, &v)
		if n < 2 && err != nil {
			t.Fatalf("bad spec %q: %v", s, err)
		}
		r.MustAppend(tt, event.Int(id), event.String(l), event.Float(v))
	}
	r.SortByTime()
	return r
}

func compile(t *testing.T, p *pattern.Pattern, s *event.Schema) *automaton.Automaton {
	t.Helper()
	a, err := automaton.Compile(p, s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// seq builds the all-singleton two-set pattern ⟨{x},{y}⟩ with type
// conditions x.L='A', y.L='B'.
func seqPattern(t *testing.T, within event.Duration) *pattern.Pattern {
	t.Helper()
	return pattern.New().
		Set(pattern.Var("x")).
		Set(pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(within).MustBuild()
}

func matchStrings(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// TestRunningExample is the end-to-end golden for the paper's worked
// example: Query Q1 (Example 2) over the Figure 1 relation. The two
// intended results of Example 1 must be found:
//
//	{c/e1, d/e3, p+/e4, p+/e9, b/e12}   (patient 1)
//	{p+/e6, d/e7, c/e8, p+/e10, p+/e11, b/e13}   (patient 2, Example 4)
//
// plus one additional substitution starting at e7, which the
// operational skip-till-next-match algorithm necessarily produces
// (a fresh instance starts at every event; see DESIGN.md). Sequence
// numbers below are 0-based (paper's e1 = e0).
func TestRunningExample(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, metrics, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	got := matchStrings(matches)
	want := map[string]bool{
		"{c/e0, d/e2, p+/e3, p+/e8, b/e11}":         true, // patient 1
		"{p+/e5, d/e6, c/e7, p+/e9, p+/e10, b/e12}": true, // patient 2 (Example 4)
		"{d/e6, c/e7, p+/e9, p+/e10, b/e12}":        true, // operational suffix match
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches %v, want %d", len(got), got, len(want))
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected match %s", g)
		}
	}
	if metrics.EventsProcessed != 14 {
		t.Errorf("EventsProcessed = %d", metrics.EventsProcessed)
	}
	if metrics.Matches != 3 {
		t.Errorf("metrics.Matches = %d", metrics.Matches)
	}
	if metrics.MaxSimultaneousInstances < 2 {
		t.Errorf("MaxSimultaneousInstances = %d", metrics.MaxSimultaneousInstances)
	}
}

// TestRunningExampleWindowSize pins Example 9: W = 14 for τ = 264h.
func TestRunningExampleWindowSize(t *testing.T) {
	if w := paperdata.Relation().WindowSize(paperdata.Within); w != 14 {
		t.Errorf("W = %d, want 14", w)
	}
}

// TestFigure6Trace follows the patient-1 automaton instance through
// the seven steps of Figure 6 via the trace hook.
func TestFigure6Trace(t *testing.T) {
	var steps []string
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	r := New(a, WithTrace(func(s TraceStep) {
		if s.Kind != TraceTransition {
			return // lifecycle events (spawn/expire/match) are not part of Figure 6
		}
		if strings.HasPrefix(s.Buffer, "{c/e0") || s.Buffer == "{c/e0}" {
			steps = append(steps, fmt.Sprintf("e%d: %s->%s %s",
				s.Event.Seq, a.StateLabel(s.FromState), a.StateLabel(s.ToState), s.Buffer))
		}
	}))
	relation := paperdata.Relation()
	for i := 0; i < relation.Len(); i++ {
		if _, err := r.Step(relation.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	want := []string{
		"e0: ∅->c {c/e0}",                                    // Figure 6(b): read e1, match starts
		"e2: c->cd {c/e0, d/e2}",                             // 6(d): read e3
		"e3: cd->cp+d {c/e0, d/e2, p+/e3}",                   // 6(e): read e4
		"e8: cp+d->cp+d {c/e0, d/e2, p+/e3, p+/e8}",          // 6(g): read e9, repetition
		"e11: cp+d->cp+db {c/e0, d/e2, p+/e3, p+/e8, b/e11}", // 6(h): accepting state
	}
	if len(steps) != len(want) {
		t.Fatalf("trace = %v\nwant %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i, steps[i], want[i])
		}
	}
}

// TestSkipTillNextMatch: once a transition fires the instance must
// take it — the earliest matching event is bound (Definition 2,
// condition 4).
func TestSkipTillNextMatch(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	matches, _, err := Run(a, rel(t, "A@0", "B@1", "B@2"))
	if err != nil {
		t.Fatal(err)
	}
	got := matchStrings(matches)
	if len(got) != 1 || got[0] != "{x/e0, y/e1}" {
		t.Errorf("matches = %v, want exactly {x/e0, y/e1}", got)
	}
}

// TestSkipTillAnyStrategy: the ablation strategy also explores
// skipping matching events.
func TestSkipTillAnyStrategy(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	matches, _, err := Run(a, rel(t, "A@0", "B@1", "B@2"), WithStrategy(SkipTillAny))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	if len(got) != 2 || !got["{x/e0, y/e1}"] || !got["{x/e0, y/e2}"] {
		t.Errorf("matches = %v", matchStrings(matches))
	}
}

// TestInterSetStrictOrder: events bound to V2 must occur strictly
// after all events bound to V1, so a tie must not match (relevant for
// the duplicated datasets D2-D5 whose timestamps collide).
func TestInterSetStrictOrder(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	matches, _, err := Run(a, rel(t, "A@5", "B@5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("tied timestamps matched across sets: %v", matchStrings(matches))
	}
	matches, _, err = Run(a, rel(t, "A@5", "B@6"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("strictly later event should match: %v", matchStrings(matches))
	}
}

// TestIntraSetTiesAllowed: within one event set pattern simultaneous
// events are fine — no order is imposed.
func TestIntraSetTiesAllowed(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x"), pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	matches, _, err := Run(a, rel(t, "A@5", "B@5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].String() != "{x/e0, y/e1}" {
		t.Errorf("matches = %v", matchStrings(matches))
	}
}

// TestWindowBoundaryInclusive: |e.T − e'.T| ≤ τ is inclusive.
func TestWindowBoundaryInclusive(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	matches, _, err := Run(a, rel(t, "A@0", "B@10"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("span exactly τ should match, got %v", matchStrings(matches))
	}
	matches, _, err = Run(a, rel(t, "A@0", "B@11"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("span beyond τ matched: %v", matchStrings(matches))
	}
}

// TestEmitOnExpiry: an accepting instance is emitted when it expires
// mid-stream (Algorithm 1, lines 7-10), not only at end of input.
func TestEmitOnExpiry(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	r := New(a)
	input := rel(t, "A@0", "B@5", "A@100")
	var early []Match
	for i := 0; i < input.Len(); i++ {
		ms, err := r.Step(input.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		early = append(early, ms...)
	}
	if len(early) != 1 || early[0].String() != "{x/e0, y/e1}" {
		t.Errorf("expiry emission = %v", matchStrings(early))
	}
	if got := r.Flush(); len(got) != 0 {
		t.Errorf("flush re-emitted: %v", matchStrings(got))
	}
	if r.Metrics().ExpiredInstances == 0 {
		t.Errorf("ExpiredInstances not counted")
	}
}

// TestGroupGreediness: a group variable accumulates every matching
// event before the next set binds (MAXIMAL mode with greedy
// quantifier).
func TestGroupGreediness(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p")).
		Set(pattern.Var("b")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	matches, _, err := Run(a, rel(t, "P@0", "P@1", "P@2", "B@3"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	// One substitution per start event, each greedy from its start.
	want := []string{
		"{p+/e0, p+/e1, p+/e2, b/e3}",
		"{p+/e1, p+/e2, b/e3}",
		"{p+/e2, b/e3}",
	}
	if len(got) != len(want) {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s in %v", w, matchStrings(matches))
		}
	}
}

// TestGroupLoopAtAcceptingState: with a single event set pattern the
// accepting state itself carries the group self-loop, and emission
// happens on expiry with the maximal binding set.
func TestGroupLoopAtAcceptingState(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		Within(10).MustBuild()
	a := compile(t, p, simpleSchema())
	matches, _, err := Run(a, rel(t, "P@0", "P@1", "P@2"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	want := []string{"{p+/e0, p+/e1, p+/e2}", "{p+/e1, p+/e2}", "{p+/e2}"}
	if len(got) != len(want) {
		t.Fatalf("matches = %v", matchStrings(matches))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// TestConditionAgainstAllGroupBindings: a condition between a variable
// and a group variable must hold against every binding of the group
// variable (the decomposition semantics of Section 3.2).
func TestConditionAgainstAllGroupBindings(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p")).
		Set(pattern.Var("b")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		WhereVars("p", "V", pattern.Lt, "b", "V").
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	// P(V=1)@0, P(V=5)@1, B(V=3)@2 fails (3 > 5 is false), B(V=9)@3 works.
	input := rel(t, "P@0/1/1", "P@1/1/5", "B@2/1/3", "B@3/1/9")
	matches, _, err := Run(a, input)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	if !got["{p+/e0, p+/e1, b/e3}"] {
		t.Errorf("missing full match against B(V=9): %v", matchStrings(matches))
	}
	if got["{p+/e0, p+/e1, b/e2}"] {
		t.Errorf("B(V=3) must fail against p binding with V=5")
	}
}

// TestSelfConditionEvaluation: v.A φ v.A' compares attributes of each
// single binding.
func TestSelfConditionEvaluation(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereVars("p", "V", pattern.Gt, "p", "ID").
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	// V must exceed ID per event: P(id=1,V=5) passes, P(id=7,V=2) fails.
	matches, _, err := Run(a, rel(t, "P@0/1/5", "P@1/7/2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].String() != "{p+/e0}" {
		t.Errorf("matches = %v", matchStrings(matches))
	}
}

// TestFilterEquivalence: the Section 4.5 filter must not change the
// result set, only the number of instance iterations.
func TestFilterEquivalence(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	relation := paperdata.Relation()
	plain, mPlain, err := Run(a, relation)
	if err != nil {
		t.Fatal(err)
	}
	filtered, mFilt, err := Run(a, relation, WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatchSet(plain, filtered) {
		t.Errorf("filter changed results:\nplain    %v\nfiltered %v",
			matchStrings(plain), matchStrings(filtered))
	}
	if mFilt.EventsFiltered != 0 {
		// Every Figure 1 event is a C/D/P/B event, so nothing filters.
		t.Errorf("EventsFiltered = %d on all-matching input", mFilt.EventsFiltered)
	}
	if mFilt.InstanceIterations > mPlain.InstanceIterations {
		t.Errorf("filter increased iterations: %d > %d", mFilt.InstanceIterations, mPlain.InstanceIterations)
	}
}

// TestFilterSkipsIrrelevantEvents: noise events are filtered and skip
// the Ω iteration entirely.
func TestFilterSkipsIrrelevantEvents(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	input := rel(t, "A@0", "X@1", "X@2", "X@3", "B@4")
	plain, mPlain, err := Run(a, input)
	if err != nil {
		t.Fatal(err)
	}
	filtered, mFilt, err := Run(a, input, WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatchSet(plain, filtered) {
		t.Errorf("filter changed results")
	}
	if mFilt.EventsFiltered != 3 {
		t.Errorf("EventsFiltered = %d, want 3", mFilt.EventsFiltered)
	}
	if mFilt.InstanceIterations >= mPlain.InstanceIterations {
		t.Errorf("filter did not reduce iterations: %d vs %d",
			mFilt.InstanceIterations, mPlain.InstanceIterations)
	}
}

func sameMatchSet(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]int{}
	for _, m := range a {
		set[m.String()]++
	}
	for _, m := range b {
		set[m.String()]--
	}
	for _, n := range set {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestNonDeterministicBranching: with overlapping conditions an
// instance branches into one instance per fireable transition
// (Algorithm 2), yielding |V1|! paths (Theorem 2's mechanism).
func TestNonDeterministicBranching(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x"), pattern.Var("y"), pattern.Var("z")).
		WhereConst("x", "L", pattern.Eq, event.String("P")).
		WhereConst("y", "L", pattern.Eq, event.String("P")).
		WhereConst("z", "L", pattern.Eq, event.String("P")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	matches, metrics, err := Run(a, rel(t, "P@0", "P@1", "P@2"))
	if err != nil {
		t.Fatal(err)
	}
	// The start-at-e0 lineage alone realises 3! = 6 orderings; later
	// starts cannot complete (not enough events remain).
	if len(matches) != 6 {
		t.Errorf("matches = %d %v, want 6", len(matches), matchStrings(matches))
	}
	for _, m := range matches {
		if m.String() != "{x/e0, y/e1, z/e2}" && m.EventCount() == 3 {
			// All complete matches bind the same three events; the
			// rendered form sorts chronologically, so each of the 6
			// matches prints with different variable assignment.
			continue
		}
	}
	if metrics.MaxSimultaneousInstances < 6 {
		t.Errorf("MaxSimultaneousInstances = %d, want >= 6", metrics.MaxSimultaneousInstances)
	}
}

// TestCase1NoBranching: mutually exclusive variables never branch
// (Lemma 1 / Theorem 1): one lineage per start event.
func TestCase1NoBranching(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x"), pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	_, metrics, err := Run(a, rel(t, "A@0", "B@1", "A@2", "B@3"))
	if err != nil {
		t.Fatal(err)
	}
	// Fired transitions equal created instances; no branching means
	// instances never multiply beyond one per (event, instance) pair.
	if metrics.TransitionsFired != metrics.InstancesCreated {
		t.Errorf("fired %d != created %d", metrics.TransitionsFired, metrics.InstancesCreated)
	}
}

func TestMaxInstancesCap(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x"), pattern.Var("y"), pattern.Var("z")).
		WhereConst("x", "L", pattern.Eq, event.String("P")).
		WhereConst("y", "L", pattern.Eq, event.String("P")).
		WhereConst("z", "L", pattern.Eq, event.String("P")).
		Within(1000).MustBuild()
	a := compile(t, p, simpleSchema())
	specs := make([]string, 12)
	for i := range specs {
		specs[i] = fmt.Sprintf("P@%d", i)
	}
	_, _, err := Run(a, rel(t, specs...), WithMaxInstances(10))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("expected instance cap error, got %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	r := event.NewRelation(simpleSchema())
	r.MustAppend(5, event.Int(1), event.String("A"), event.Float(0))
	r.MustAppend(1, event.Int(1), event.String("B"), event.Float(0))
	if _, _, err := Run(a, r); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Errorf("unsorted relation accepted: %v", err)
	}
	other := event.NewRelation(event.MustSchema(event.Field{Name: "x", Type: event.TypeInt}))
	if _, _, err := Run(a, other); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch accepted: %v", err)
	}
}

func TestStepAfterFlush(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	r := New(a)
	r.Flush()
	e := event.Event{Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	if _, err := r.Step(&e); err == nil {
		t.Errorf("Step after Flush should fail")
	}
	r.Reset()
	if _, err := r.Step(&e); err != nil {
		t.Errorf("Step after Reset failed: %v", err)
	}
}

func TestRunnerAccessors(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	r := New(a)
	if r.Automaton() != a {
		t.Errorf("Automaton() mismatch")
	}
	if r.ActiveInstances() != 0 {
		t.Errorf("fresh runner has instances")
	}
	e := event.Event{Time: 0, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	if _, err := r.Step(&e); err != nil {
		t.Fatal(err)
	}
	if r.ActiveInstances() != 1 {
		t.Errorf("ActiveInstances = %d, want 1", r.ActiveInstances())
	}
}

func TestStrategyString(t *testing.T) {
	if SkipTillNext.String() != "skip-till-next-match" || SkipTillAny.String() != "skip-till-any-match" {
		t.Errorf("Strategy.String wrong")
	}
}

// TestEmitOnAccept: first-match alerting emits the instant the
// accepting state is reached and terminates the lineage.
func TestEmitOnAccept(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p")).
		Set(pattern.Var("b")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	input := rel(t, "P@0", "B@1", "B@2")

	r := New(a, WithEmitOnAccept(true))
	var early []Match
	for i := 0; i < input.Len(); i++ {
		ms, err := r.Step(input.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			early = append(early, m)
			// The match must surface at the accepting event itself.
			if m.Last != input.Event(i).Time {
				t.Errorf("match %s emitted at t=%d, want %d", m, input.Event(i).Time, m.Last)
			}
		}
	}
	early = append(early, r.Flush()...)
	if len(early) != 1 || early[0].String() != "{p+/e0, b/e1}" {
		t.Errorf("matches = %v", matchStrings(early))
	}

	// Default mode on the same input: only B@1 binds (skip-till-next
	// takes the first B), emitted at flush.
	lazy, _, err := Run(a, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy) != 1 || lazy[0].String() != "{p+/e0, b/e1}" {
		t.Errorf("default-mode matches = %v", matchStrings(lazy))
	}
}

// TestEmitOnAcceptGroupInLastSet: a group variable in the final event
// set pattern stops accumulating once accepted.
func TestEmitOnAcceptGroupInLastSet(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("a")).
		Set(pattern.Plus("p")).
		WhereConst("a", "L", pattern.Eq, event.String("A")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		Within(100).MustBuild()
	a := compile(t, p, simpleSchema())
	input := rel(t, "A@0", "P@1", "P@2", "P@3")

	eager, _, err := Run(a, input, WithEmitOnAccept(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(eager) != 1 || eager[0].String() != "{a/e0, p+/e1}" {
		t.Errorf("eager matches = %v", matchStrings(eager))
	}
	// Default MAXIMAL mode accumulates all three P events.
	lazy, _, err := Run(a, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy) != 1 || lazy[0].String() != "{a/e0, p+/e1, p+/e2, p+/e3}" {
		t.Errorf("lazy matches = %v", matchStrings(lazy))
	}
}

// TestDeterminism: two runs over the same input produce identical
// matches in identical order, and identical metrics.
func TestDeterminism(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	rel := paperdata.Relation()
	m1, x1, err := Run(a, rel, WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	m2, x2, err := Run(a, rel, WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("lengths differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i].String() != m2[i].String() {
			t.Errorf("match %d differs: %s vs %s", i, m1[i], m2[i])
		}
	}
	if x1 != x2 {
		t.Errorf("metrics differ:\n%s\n%s", x1, x2)
	}
}

// TestIndependentRunners: two runners over the same automaton do not
// share state.
func TestIndependentRunners(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	r1, r2 := New(a), New(a)
	input := rel(t, "A@0", "B@1")
	for i := 0; i < input.Len(); i++ {
		if _, err := r1.Step(input.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	// r2 saw nothing; its flush must be empty while r1 yields a match.
	if got := r2.Flush(); len(got) != 0 {
		t.Errorf("runner 2 leaked state: %v", matchStrings(got))
	}
	if got := r1.Flush(); len(got) != 1 {
		t.Errorf("runner 1 matches = %v", matchStrings(got))
	}
}
