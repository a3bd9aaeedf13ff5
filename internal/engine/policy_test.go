package engine

import (
	"strings"
	"testing"

	"repro/internal/event"
)

// policyRel feeds n 'A' events at consecutive times; under seqPattern
// every one of them opens an instance waiting for a 'B', so |Ω| grows
// linearly — the controlled blow-up the overload policies must tame.
func policyRel(t *testing.T, n int, step event.Duration) *event.Relation {
	t.Helper()
	r := event.NewRelation(simpleSchema())
	for i := 0; i < n; i++ {
		r.MustAppend(event.Time(int64(i)*int64(step)), event.Int(1), event.String("A"), event.Float(0))
	}
	return r
}

func stepAll(t *testing.T, r *Runner, rel *event.Relation) ([]Match, error) {
	t.Helper()
	var out []Match
	for i := 0; i < rel.Len(); i++ {
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			return out, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

func TestPolicyFailIsPaperExact(t *testing.T) {
	a := compile(t, seqPattern(t, 100000), simpleSchema())
	r := New(a, WithMaxInstances(10)) // default policy: Fail
	_, err := stepAll(t, r, policyRel(t, 50, 1))
	if err == nil || !strings.Contains(err.Error(), "exceed the cap") {
		t.Fatalf("Fail policy should error at the cap, got %v", err)
	}
}

func TestPolicyRejectNew(t *testing.T) {
	a := compile(t, seqPattern(t, 100000), simpleSchema())
	r := New(a, WithMaxInstances(10), WithOverloadPolicy(RejectNew))
	if _, err := stepAll(t, r, policyRel(t, 50, 1)); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.EventsRejected == 0 {
		t.Errorf("expected rejected events, metrics: %s", m)
	}
	if m.DegradedSteps == 0 {
		t.Errorf("degradation must be observable in DegradedSteps")
	}
	if got := r.ActiveInstances(); got > 10 {
		t.Errorf("ActiveInstances = %d, want <= cap 10", got)
	}
}

// TestPolicyRejectNewRecovers: admission resumes once expiry drains
// the instance set, so a RejectNew run over a long stream still finds
// matches in later windows.
func TestPolicyRejectNewRecovers(t *testing.T) {
	a := compile(t, seqPattern(t, 50), simpleSchema())
	r := New(a, WithMaxInstances(3), WithOverloadPolicy(RejectNew))
	rel := event.NewRelation(simpleSchema())
	for i := 0; i < 10; i++ { // 10 A's at t=0..9: cap 3 trips
		rel.MustAppend(event.Time(i), event.Int(1), event.String("A"), event.Float(0))
	}
	// Far beyond the window: everything expires, admission resumes.
	rel.MustAppend(1000, event.Int(1), event.String("A"), event.Float(0))
	rel.MustAppend(1001, event.Int(1), event.String("B"), event.Float(0))
	matches, err := stepAll(t, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	matches = append(matches, r.Flush()...)
	if len(matches) != 1 {
		t.Fatalf("matches = %v, want exactly the post-recovery one", matchStrings(matches))
	}
	if m := r.Metrics(); m.EventsRejected == 0 {
		t.Errorf("expected rejections before recovery, metrics: %s", m)
	}
}

func TestPolicyDropOldest(t *testing.T) {
	a := compile(t, seqPattern(t, 100000), simpleSchema())
	r := New(a, WithMaxInstances(10), WithOverloadPolicy(DropOldest))
	rel := policyRel(t, 50, 1)
	if _, err := stepAll(t, r, rel); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.InstancesShed != 40 {
		t.Errorf("InstancesShed = %d, want 40 (50 starts, cap 10)", m.InstancesShed)
	}
	if m.DegradedSteps == 0 {
		t.Errorf("degradation must be observable in DegradedSteps")
	}
	if got := r.ActiveInstances(); got != 10 {
		t.Errorf("ActiveInstances = %d, want exactly the cap", got)
	}
	// The survivors are the NEWEST starts: a B completes all 10.
	b := event.Event{Time: 100, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}}
	b.Seq = rel.Len()
	if _, err := r.Step(&b); err != nil {
		t.Fatal(err)
	}
	matches := r.Flush()
	if len(matches) != 10 {
		t.Fatalf("got %d matches, want 10", len(matches))
	}
	for _, m := range matches {
		if m.First < 40 {
			t.Errorf("match %v starts at %d: an old instance survived DropOldest", m, m.First)
		}
	}
}

func TestPolicyShedStartStates(t *testing.T) {
	a := compile(t, seqPattern(t, 100000), simpleSchema())
	r := New(a, WithMaxInstances(10), WithOverloadPolicy(ShedStartStates))
	if _, err := stepAll(t, r, policyRel(t, 50, 1)); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	// Starts 1..10 admitted, 11..50 shed while |Ω| sits at the cap.
	if m.InstancesShed != 40 {
		t.Errorf("InstancesShed = %d, want 40", m.InstancesShed)
	}
	if got := r.ActiveInstances(); got != 10 {
		t.Errorf("ActiveInstances = %d, want 10", got)
	}
	// In-flight matches complete even while shedding.
	b := event.Event{Time: 100, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}}
	b.Seq = 50
	if _, err := r.Step(&b); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Flush()); got != 10 {
		t.Errorf("got %d matches, want 10 — shedding must not kill in-flight instances", got)
	}
}

// TestPolicyShedHysteresis: shedding disengages only once |Ω| drains
// below the low-water mark, then fresh starts resume.
func TestPolicyShedHysteresis(t *testing.T) {
	a := compile(t, seqPattern(t, 50), simpleSchema())
	r := New(a, WithMaxInstances(4), WithOverloadPolicy(ShedStartStates), WithShedLowWater(2))
	rel := event.NewRelation(simpleSchema())
	for i := 0; i < 8; i++ {
		rel.MustAppend(event.Time(i), event.Int(1), event.String("A"), event.Float(0))
	}
	if _, err := stepAll(t, r, rel); err != nil {
		t.Fatal(err)
	}
	if got := r.ActiveInstances(); got != 4 {
		t.Fatalf("ActiveInstances = %d, want 4 at the cap", got)
	}
	// t=1000 expires everything; the set is empty (< low water), so the
	// NEXT event opens a start instance again.
	e := event.Event{Seq: 8, Time: 1000, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	if _, err := r.Step(&e); err != nil {
		t.Fatal(err)
	}
	e2 := event.Event{Seq: 9, Time: 1001, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
	if _, err := r.Step(&e2); err != nil {
		t.Fatal(err)
	}
	if got := r.ActiveInstances(); got == 0 {
		t.Errorf("shedding never disengaged: no instance after drain + new event")
	}
}

// TestPolicyCleanRunsUndegraded: without cap pressure, every policy
// produces the exact paper semantics and zero degradation counters.
func TestPolicyCleanRunsUndegraded(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	rel := rel(t, "A@0", "B@1", "A@2", "B@3")
	want, _, err := Run(a, rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []OverloadPolicy{Fail, RejectNew, DropOldest, ShedStartStates} {
		r := New(a, WithMaxInstances(1000), WithOverloadPolicy(p))
		got, err := stepAll(t, r, rel)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r.Flush()...)
		if !sameMatchSet(want, got) {
			t.Errorf("%s: matches %v, want %v", p, matchStrings(got), matchStrings(want))
		}
		m := r.Metrics()
		if m.InstancesShed != 0 || m.EventsRejected != 0 || m.DegradedSteps != 0 {
			t.Errorf("%s: degradation counters nonzero on a clean run: %s", p, m)
		}
	}
}

// TestPolicyShedResumesAtCapOne: at cap 1 the default low-water mark is
// 1, not cap/2 = 0, so once the lone instance completes and expires the
// empty set resumes start instances. With a mark of 0 the runner would
// shed every start after the first match.
func TestPolicyShedResumesAtCapOne(t *testing.T) {
	schema := shardedSchema(t)
	a := compile(t, shardedPattern(t), schema)
	r := New(a, WithMaxInstances(1), WithOverloadPolicy(ShedStartStates))
	rel := event.NewRelation(schema)
	for round := 0; round < 5; round++ {
		ts := event.Time(round * 2000)
		rel.MustAppend(ts, event.Int(1), event.String("A"))
		rel.MustAppend(ts+1, event.Int(1), event.String("B"))
		rel.MustAppend(ts+1001, event.Int(1), event.String("C"))
	}
	got, err := stepAll(t, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, r.Flush()...)
	if len(got) != 5 {
		t.Errorf("got %d matches, want 5 (one per round): %v", len(got), matchStrings(got))
	}
}
