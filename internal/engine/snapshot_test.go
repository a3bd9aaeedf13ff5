package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// TestSnapshotRoundTrip: cutting the paper's running example at every
// possible point, snapshotting, restoring and continuing must produce
// exactly the matches of the uninterrupted run — the core guarantee
// checkpoint/restore exists for.
func TestSnapshotRoundTrip(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	relation := paperdata.Relation()

	full, _, err := Run(a, relation)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= relation.Len(); cut++ {
		r := New(a)
		var matches []Match
		for i := 0; i < cut; i++ {
			ms, err := r.Step(relation.Event(i))
			if err != nil {
				t.Fatal(err)
			}
			matches = append(matches, ms...)
		}
		var buf bytes.Buffer
		if err := r.WriteSnapshot(&buf); err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		restored, err := RestoreRunner(a, &buf)
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if restored.ActiveInstances() != r.ActiveInstances() {
			t.Fatalf("cut %d: restored |Ω| = %d, want %d", cut, restored.ActiveInstances(), r.ActiveInstances())
		}
		if restored.Metrics() != r.Metrics() {
			t.Fatalf("cut %d: restored metrics %v, want %v", cut, restored.Metrics(), r.Metrics())
		}
		for i := cut; i < relation.Len(); i++ {
			ms, err := restored.Step(relation.Event(i))
			if err != nil {
				t.Fatal(err)
			}
			matches = append(matches, ms...)
		}
		matches = append(matches, restored.Flush()...)
		if !sameMatchSet(full, matches) {
			t.Errorf("cut %d: matches %v, want %v", cut, matchStrings(matches), matchStrings(full))
		}
	}
}

// TestSnapshotPreservesDegradationState: the ShedStartStates
// hysteresis flag and the degradation counters survive a round trip,
// so a restored runner keeps degrading consistently.
func TestSnapshotPreservesDegradationState(t *testing.T) {
	a := compile(t, seqPattern(t, 100000), simpleSchema())
	r := New(a, WithMaxInstances(5), WithOverloadPolicy(ShedStartStates))
	if _, err := stepAll(t, r, policyRel(t, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().InstancesShed == 0 {
		t.Fatal("setup: expected shedding")
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunnerBytes(a, snap, WithMaxInstances(5), WithOverloadPolicy(ShedStartStates))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Metrics().InstancesShed != r.Metrics().InstancesShed {
		t.Errorf("InstancesShed lost in round trip")
	}
	// Still above low-water: the next event must be shed, not started.
	before := restored.Metrics().InstancesShed
	e := policyRel(t, 21, 1).Event(20)
	if _, err := restored.Step(e); err != nil {
		t.Fatal(err)
	}
	if restored.Metrics().InstancesShed != before+1 {
		t.Errorf("restored runner stopped shedding: hysteresis state lost")
	}
}

func TestSnapshotRejectsWrongAutomaton(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	b := compile(t, seqPattern(t, 100), simpleSchema())
	snap, err := New(a).SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreRunnerBytes(b, snap); err == nil || !strings.Contains(err.Error(), "different automaton") {
		t.Errorf("restore onto a different automaton: err = %v", err)
	}
}

func TestSnapshotRejectsWrongVersion(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	if _, err := RestoreRunnerBytes(a, []byte(`{"version": 99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version: err = %v", err)
	}
	if _, err := RestoreRunnerBytes(a, []byte(`not json`)); err == nil {
		t.Errorf("garbage input must fail")
	}
}

func TestSnapshotRejectsStrategyMismatch(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	snap, err := New(a).SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreRunnerBytes(a, snap, WithStrategy(SkipTillAny)); err == nil ||
		!strings.Contains(err.Error(), "strategy") {
		t.Errorf("strategy mismatch: err = %v", err)
	}
}

// TestSnapshotSharesBufferPrefixes: branched instances share buffer
// nodes; the snapshot must encode the DAG, not expand it.
func TestSnapshotSharesBufferPrefixes(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	relation := paperdata.Relation()
	r := New(a)
	for i := 0; i < relation.Len(); i++ {
		if _, err := r.Step(relation.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreRunnerBytes(a, snap)
	if err != nil {
		t.Fatal(err)
	}
	// A second snapshot of the restored runner must be identical: the
	// format is canonical (instances walked in order, nodes emitted
	// oldest-first on first encounter).
	snap2, err := restored.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Errorf("snapshot is not canonical across a round trip")
	}
}

// TestSnapshotUnkeyedBytesPinned pins the bytes of an unkeyed snapshot
// cut two thirds into the running example, with and without an
// aggregation section: the version-1 and version-2 formats older
// readers restore stay exactly as they were before keyed snapshots.
func TestSnapshotUnkeyedBytesPinned(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	spec := &pattern.AggSpec{Partition: "ID", Items: []pattern.AggItem{
		{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}}}
	for _, tc := range []struct {
		opts []Option
		want string
	}{
		{nil, "e0fd02e4ebb19ecd23c57102dd5e110611fa6476a20c74c834ac00d7b631cbd0"},
		{[]Option{WithAggregation(NewAggregator(mustAggPlan(t, a, spec)))}, "a1626345365460308cd13181e89acedd04d27d8e54b6a4c42ff0daa45d8556ca"},
	} {
		r := New(a, tc.opts...)
		rel := paperdata.Relation()
		for i := 0; i < rel.Len()*2/3; i++ {
			if _, err := r.Step(rel.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := r.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != tc.want {
			t.Errorf("snapshot sha256 %s, want %s:\n%s", got, tc.want, snap)
		}
	}
}
