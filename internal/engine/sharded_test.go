package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/pattern"
)

// shardedSchema is a keyed two-attribute schema (entity ID + type).
func shardedSchema(t testing.TB) *event.Schema {
	t.Helper()
	s, err := event.NewSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardedPattern matches an A followed by a B of the same entity
// within the window.
func shardedPattern(t testing.TB) *pattern.Pattern {
	t.Helper()
	p, err := pattern.New().
		Set(pattern.Var("a")).
		Set(pattern.Var("b")).
		WhereConst("a", "L", pattern.Eq, event.String("A")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		WhereVars("a", "ID", pattern.Eq, "b", "ID").
		Within(100).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// shardedRelation interleaves nKeys entities, each alternating A and B
// events, producing one a-b match per entity per A/B pair.
func shardedRelation(t testing.TB, schema *event.Schema, nKeys, rounds int) *event.Relation {
	t.Helper()
	rel := event.NewRelation(schema)
	labels := []string{"A", "B"}
	ts := event.Time(0)
	for r := 0; r < rounds; r++ {
		for k := 0; k < nKeys; k++ {
			rel.MustAppend(ts, event.Int(int64(k)), event.String(labels[r%2]))
			ts++
		}
	}
	return rel
}

func compileSharded(t testing.TB) (*automaton.Automaton, *event.Relation) {
	t.Helper()
	schema := shardedSchema(t)
	a, err := automaton.Compile(shardedPattern(t), schema)
	if err != nil {
		t.Fatal(err)
	}
	return a, shardedRelation(t, schema, 7, 8)
}

// matchLines renders matches one per line for byte-exact comparison.
func matchLines(ms []Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s @[%d,%d]\n", m.String(), m.First, m.Last)
	}
	return b.String()
}

// TestShardedMatchesPartitioned verifies the sharded executor finds
// exactly the per-key match set of sequential partitioned evaluation.
func TestShardedMatchesPartitioned(t *testing.T) {
	a, rel := compileSharded(t)
	parts, err := rel.Partition("ID")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	total := 0
	for _, p := range parts {
		ms, _, err := Run(a, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			want[m.String()]++
			total++
		}
	}
	got, _, err := RunSharded(a, rel, "ID", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("sharded found %d matches, sequential partitioned %d", len(got), total)
	}
	for _, m := range got {
		if want[m.String()] == 0 {
			t.Errorf("unexpected sharded match %s", m)
			continue
		}
		want[m.String()]--
	}
}

// TestShardedDeterministicAcrossShardCounts verifies the merged output
// stream is byte-identical for 1, 2, 3 and 8 shards: the merge order
// depends only on the input, never on the sharding or scheduling.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	a, rel := compileSharded(t)
	var ref string
	for _, shards := range []int{1, 2, 3, 8} {
		ms, _, err := RunSharded(a, rel, "ID", shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := matchLines(ms)
		if shards == 1 {
			ref = got
			if ref == "" {
				t.Fatal("no matches found; test data broken")
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d output differs from shards=1:\n--- got ---\n%s--- want ---\n%s", shards, got, ref)
		}
	}
}

// TestShardedEmissionOrder verifies that incremental, watermark-driven
// release (tight buffers, frequent watermarks) emits matches in exactly
// the deterministic batch order: streaming never reorders relative to
// RunSharded, no matter how eagerly the merge releases.
func TestShardedEmissionOrder(t *testing.T) {
	a, rel := compileSharded(t)
	want, _, err := RunSharded(a, rel, "ID", 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(a, "ID", 3, WithWatermarkEvery(4), WithShardBuffer(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan event.Event)
	go func() {
		defer close(in)
		for i := 0; i < rel.Len(); i++ {
			in <- *rel.Event(i)
		}
	}()
	out, err := s.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	for m := range out {
		got = append(got, m)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no matches emitted")
	}
	if g, w := matchLines(got), matchLines(want); g != w {
		t.Errorf("streaming emission order differs from batch order:\n--- got ---\n%s--- want ---\n%s", g, w)
	}
}

// TestShardedMetricsMerge verifies the aggregated metrics use merge
// semantics: events sum over keys, the instance peak is a maximum, not
// a sum.
func TestShardedMetricsMerge(t *testing.T) {
	a, rel := compileSharded(t)
	_, m, err := RunSharded(a, rel, "ID", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventsProcessed != int64(rel.Len()) {
		t.Errorf("EventsProcessed = %d, want %d", m.EventsProcessed, rel.Len())
	}
	// Each per-key runner sees at most its own events; the merged peak
	// must be a per-key peak, far below the summed peaks of 7 keys.
	var peak int64
	parts, _ := rel.Partition("ID")
	for _, p := range parts {
		_, pm, err := Run(a, p)
		if err != nil {
			t.Fatal(err)
		}
		if pm.MaxSimultaneousInstances > peak {
			peak = pm.MaxSimultaneousInstances
		}
	}
	if m.MaxSimultaneousInstances != peak {
		t.Errorf("merged MaxSimultaneousInstances = %d, want per-key max %d", m.MaxSimultaneousInstances, peak)
	}
	if m.Matches == 0 {
		t.Errorf("no matches counted")
	}
}

// TestShardedUnknownKey verifies construction fails cleanly on a
// missing key attribute.
func TestShardedUnknownKey(t *testing.T) {
	a, _ := compileSharded(t)
	if _, err := NewSharded(a, "NOPE", 2); err == nil {
		t.Error("unknown key attribute accepted")
	}
}

// TestShardedOutOfOrderInput verifies the dispatcher rejects time
// regressions like Runner.Stream does.
func TestShardedOutOfOrderInput(t *testing.T) {
	a, _ := compileSharded(t)
	s, err := NewSharded(a, "ID", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan event.Event, 2)
	in <- event.Event{Time: 10, Attrs: []event.Value{event.Int(1), event.String("A")}}
	in <- event.Event{Time: 5, Attrs: []event.Value{event.Int(1), event.String("B")}}
	close(in)
	out, err := s.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for range out {
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("Err() = %v, want out-of-order error", err)
	}
}

// TestShardedCancellation verifies a cancelled context unwinds the
// whole executor: the output channel closes and Err reports the cause.
func TestShardedCancellation(t *testing.T) {
	a, rel := compileSharded(t)
	s, err := NewSharded(a, "ID", 2, WithShardBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event)
	go func() {
		// Feed forever until the dispatcher stops reading; never close,
		// so only cancellation can end the run.
		i := 0
		for {
			e := *rel.Event(i % rel.Len())
			e.Time = event.Time(i) // keep time nondecreasing
			select {
			case in <- e:
			case <-ctx.Done():
				return
			}
			i++
		}
	}()
	out, err := s.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan struct{})
	go func() {
		for range out {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("output channel did not close after cancellation")
	}
	if s.Err() == nil {
		t.Error("Err() = nil after cancellation")
	}
}

// TestShardedRunTwice verifies the one-shot contract.
func TestShardedRunTwice(t *testing.T) {
	a, _ := compileSharded(t)
	s, err := NewSharded(a, "ID", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := make(chan event.Event)
	close(in)
	out, err := s.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for range out {
	}
	if _, err := s.Run(ctx, in); err == nil {
		t.Error("second Run accepted")
	}
}

// TestShardedStepError verifies a per-key runner error (instance cap
// with the Fail policy) terminates the run and surfaces through Err.
func TestShardedStepError(t *testing.T) {
	a, rel := compileSharded(t)
	_, _, err := RunSharded(a, rel, "ID", 2, WithMaxInstances(1))
	if err == nil {
		t.Fatal("instance cap exceeded but no error")
	}
	if !strings.Contains(err.Error(), "exceed the cap") {
		t.Errorf("err = %v, want instance cap error", err)
	}
}

// TestShardedTiedTimestamps exercises the watermark tie handling:
// events sharing timestamps across keys must not let the merge release
// matches early. Uses several keys per timestamp and verifies
// determinism across shard counts.
func TestShardedTiedTimestamps(t *testing.T) {
	schema := shardedSchema(t)
	a, err := automaton.Compile(shardedPattern(t), schema)
	if err != nil {
		t.Fatal(err)
	}
	rel := event.NewRelation(schema)
	// All keys share every timestamp: t0 all As, t1 all Bs, repeated.
	for r := 0; r < 6; r++ {
		for k := 0; k < 5; k++ {
			label := "A"
			if r%2 == 1 {
				label = "B"
			}
			rel.MustAppend(event.Time(r), event.Int(int64(k)), event.String(label))
		}
	}
	var ref string
	for _, shards := range []int{1, 4} {
		ms, _, err := RunSharded(a, rel, "ID", shards, WithWatermarkEvery(1))
		if err != nil {
			t.Fatal(err)
		}
		got := matchLines(ms)
		if shards == 1 {
			ref = got
			if ref == "" {
				t.Fatal("no matches; test data broken")
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d output differs under tied timestamps:\n%s\nvs\n%s", shards, got, ref)
		}
	}
}
