package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/pattern"
)

// A keyed runner (WithPartitionKey) shards its state by key: one
// sub-runner per key value. The tests below hold it to the partitioned
// evaluation it must equal.

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

// jsonLines renders matches as renderMatches lines.
func jsonLines(ms []Match, schema *event.Schema) []string {
	lines := strings.Split(string(renderMatches(nil, ms, schema)), "\n")
	return lines[:len(lines)-1]
}

// matchLines renders matches one per line with their windows.
func matchLines(ms []Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s @[%d,%d]\n", m.String(), m.First, m.Last)
	}
	return b.String()
}

// stepLines steps evs through r in blocks of size, returning the match
// lines in emission order.
func stepLines(r *Runner, evs []event.Event, size int) ([]string, error) {
	var lines []string
	for lo := 0; lo < len(evs); lo += size {
		ms, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+size, len(evs))]})
		lines = append(lines, jsonLines(ms, r.a.Schema)...)
		if err != nil {
			return lines, err
		}
	}
	return lines, nil
}

// keyedRun is stepLines followed by the flush.
func keyedRun(r *Runner, evs []event.Event, size int) ([]string, error) {
	lines, err := stepLines(r, evs, size)
	if err != nil {
		return lines, err
	}
	return append(lines, jsonLines(r.Flush(), r.a.Schema)...), nil
}

// partitionedRun is the reference: evs split by the key attribute the
// way Relation.Partition splits, one fresh runner per partition. It
// returns the sorted match lines, the merged Metrics and whether any
// partition failed.
func partitionedRun(a *automaton.Automaton, evs []event.Event, attr string, opts []Option) ([]string, Metrics, bool) {
	idx, _ := a.Schema.Index(attr)
	where := map[event.Value]int{}
	var parts [][]event.Event
	for _, e := range evs {
		pi, ok := where[e.Attrs[idx]]
		if !ok {
			pi = len(parts)
			where[e.Attrs[idx]] = pi
			parts = append(parts, nil)
		}
		parts[pi] = append(parts[pi], e)
	}
	var lines []string
	var merged Metrics
	failed := false
	for _, p := range parts {
		r := New(a, opts...)
		ls, err := keyedRun(r, p, 1)
		failed = failed || err != nil
		lines = append(lines, ls...)
		merged.Merge(r.Metrics())
	}
	slices.Sort(lines)
	return lines, merged, failed
}

// keyedInputs are the keyed ≡ partitioned inputs: random patterns over
// random streams (seven IDs, frequent ties, schema drift), the
// overlapping-patients chemo stream, and the same stream with its times
// cut to whole days, so many events of different keys share a timestamp.
func keyedInputs(t *testing.T) []struct {
	name string
	a    *automaton.Automaton
	evs  []event.Event
	cap  int
} {
	type input = struct {
		name string
		a    *automaton.Automaton
		evs  []event.Event
		cap  int
	}
	schema, chemoEvs := overlapStream(t, 12)
	tied := slices.Clone(chemoEvs)
	for i := range tied {
		tied[i].Time -= tied[i].Time % event.Time(event.Day)
	}
	a := compile(t, groupPattern(), schema)
	inputs := []input{{"chemo-overlap", a, chemoEvs, 40}, {"chemo-tied", a, tied, 40}}
	for trial := 0; len(inputs) < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		p := randIdentityPattern(rng)
		if p == nil {
			continue
		}
		a, err := automaton.Compile(p, simpleSchema())
		if err != nil {
			continue
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", trial), a,
			randIdentityEvents(rng, 150+rng.Intn(150)), 1 + rng.Intn(3)})
	}
	return inputs
}

// TestShardedMatchesPartitioned is the keyed runner's contract: with the
// filter on and off and under every overload policy at a small per-key
// cap, stepped in blocks of 1, 7 and 256 events, it finds exactly the
// multiset of MatchJSON lines partitioned evaluation finds, and its
// Metrics is Metrics.Merge over the partitions' runs. Under Fail it
// fails exactly when a partition does.
func TestShardedMatchesPartitioned(t *testing.T) {
	for _, in := range keyedInputs(t) {
		for _, filter := range []bool{false, true} {
			for _, pol := range []OverloadPolicy{Fail, RejectNew, DropOldest, ShedStartStates} {
				for _, capped := range []bool{false, true} {
					if !capped && pol != Fail {
						continue
					}
					opts := []Option{WithFilter(filter)}
					if capped {
						opts = append(opts, WithMaxInstances(in.cap), WithOverloadPolicy(pol))
					}
					want, wantM, wantFail := partitionedRun(in.a, in.evs, "ID", opts)
					for _, size := range []int{1, 7, 256} {
						name := fmt.Sprintf("%s/filter=%v/cap=%v/%s/block=%d", in.name, filter, capped, pol, size)
						r := New(in.a, append(opts, WithPartitionKey("ID"))...)
						got, err := keyedRun(r, in.evs, size)
						if (err != nil) != wantFail {
							t.Fatalf("%s: keyed error %v, a partition failed: %v", name, err, wantFail)
						}
						if wantFail {
							continue
						}
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: keyed found %d matches, partitioned %d, or they differ", name, len(got), len(want))
						}
						if r.Metrics() != wantM {
							t.Fatalf("%s: Metrics\nkeyed:       %+v\npartitioned: %+v", name, r.Metrics(), wantM)
						}
					}
				}
			}
		}
	}
}

// TestShardedDeterministicAcrossShardCounts: a keyed runner's output,
// in emission order, depends on the stream only. Stepped in blocks of
// 1, 2, 3 and 8 events, and run twice at each size, it emits the same
// lines in the same order.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	a, rel := compileSharded(t)
	var ref []string
	for _, size := range []int{1, 2, 3, 8} {
		for run := 0; run < 2; run++ {
			got, err := keyedRun(New(a, WithPartitionKey("ID")), rel.Events(), size)
			if err != nil {
				t.Fatalf("block=%d run=%d: %v", size, run, err)
			}
			if ref == nil {
				ref = got
				if len(ref) == 0 {
					t.Fatal("no matches found; test data broken")
				}
				continue
			}
			if !slices.Equal(got, ref) {
				t.Errorf("block=%d run=%d output differs from block=1:\n--- got ---\n%s\n--- want ---\n%s",
					size, run, strings.Join(got, "\n"), strings.Join(ref, "\n"))
			}
		}
	}
}

// TestKeyedAggregateFold: a keyed runner's Aggregator fold, per key
// group and globally, equals the fold over the matches it enumerates,
// whose multiset is partitioned evaluation's.
func TestKeyedAggregateFold(t *testing.T) {
	schema, evs := overlapStream(t, 12)
	a := compile(t, groupPattern(), schema)
	for _, part := range []string{"", "ID"} {
		spec := &pattern.AggSpec{Partition: part, Items: []pattern.AggItem{
			{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}, {Func: pattern.AggMax, Attr: "V"}}}
		plan := mustAggPlan(t, a, spec)
		ag := NewAggregator(plan)
		r := New(a, WithPartitionKey("ID"), WithAggregation(ag))
		var matches []Match
		for i := range evs {
			ms, err := r.Step(&evs[i])
			if err != nil {
				t.Fatal(err)
			}
			matches = append(matches, ms...)
		}
		matches = append(matches, r.Flush()...)
		want, _, _ := partitionedRun(a, evs, "ID", nil)
		got := jsonLines(matches, schema)
		slices.Sort(got)
		if len(matches) == 0 || !slices.Equal(got, want) {
			t.Fatalf("partition %q: keyed enumerated %d matches, partitioned %d, or they differ", part, len(got), len(want))
		}
		compareStats(t, plan, parseStats(t, mustStats(ag)), refAggregate(a, plan, matches), "partition "+part)
	}
}

// TestShardedEmissionOrder: a keyed runner emits in step order. Every
// match a step returns belongs to the stepped event's key, and Flush
// ends the keys in first-occurrence order.
func TestShardedEmissionOrder(t *testing.T) {
	key := func(m Match) int64 { return m.Events()[0].Attrs[0].Int64() }
	run := func(a *automaton.Automaton, evs []event.Event) (stepped, flushed int) {
		r := New(a, WithPartitionKey("ID"))
		first := map[int64]int{}
		for i := range evs {
			id := evs[i].Attrs[0].Int64()
			if _, ok := first[id]; !ok {
				first[id] = len(first)
			}
			ms, err := r.Step(&evs[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				if key(m) != id {
					t.Fatalf("step of key %d emitted a match of key %d", id, key(m))
				}
			}
			stepped += len(ms)
		}
		ms := r.Flush()
		for i := 1; i < len(ms); i++ {
			if first[key(ms[i])] < first[key(ms[i-1])] {
				t.Fatalf("flush match %d leaves first-occurrence key order", i)
			}
		}
		return stepped, len(ms)
	}
	schema, evs := overlapStream(t, 12)
	if stepped, _ := run(compile(t, groupPattern(), schema), evs); stepped == 0 {
		t.Fatal("no match emitted by a step")
	}
	a, rel := compileSharded(t)
	if _, flushed := run(a, rel.Events()); flushed < 2 {
		t.Fatalf("flush emitted %d matches, want several keys'", flushed)
	}
}

// TestShardedMetricsMerge: Metrics is kept current as the keys step,
// with merge semantics: events sum over keys, the instance peak is the
// per-key maximum, not a sum.
func TestShardedMetricsMerge(t *testing.T) {
	a, rel := compileSharded(t)
	r := New(a, WithPartitionKey("ID"))
	for i := 0; i < rel.Len(); i++ {
		if _, err := r.Step(rel.Event(i)); err != nil {
			t.Fatal(err)
		}
		var merged Metrics
		for _, s := range r.keyed.subs {
			merged.Merge(s.metrics)
		}
		if r.Metrics() != merged {
			t.Fatalf("after event %d: Metrics %+v, merge over the keys %+v", i, r.Metrics(), merged)
		}
	}
	r.Flush()
	m := r.Metrics()
	if m.EventsProcessed != int64(rel.Len()) {
		t.Errorf("EventsProcessed = %d, want %d", m.EventsProcessed, rel.Len())
	}
	var peak int64
	parts, _ := rel.Partition("ID")
	for _, p := range parts {
		_, pm, err := Run(a, p)
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, pm.MaxSimultaneousInstances)
	}
	if m.MaxSimultaneousInstances != peak {
		t.Errorf("MaxSimultaneousInstances = %d, want per-key max %d", m.MaxSimultaneousInstances, peak)
	}
	if m.Matches == 0 {
		t.Errorf("no matches counted")
	}
}

// TestShardedUnknownKey: a key attribute missing from the schema fails
// every step and every restore.
func TestShardedUnknownKey(t *testing.T) {
	a, rel := compileSharded(t)
	r := New(a, WithPartitionKey("NOPE"))
	if _, err := r.Step(rel.Event(0)); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("Step err = %v, want the unknown key attribute", err)
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreRunnerBytes(a, snap, WithPartitionKey("NOPE")); err == nil {
		t.Error("restore onto an unknown key attribute accepted")
	}
}

// TestShardedRunTwice: Reset forgets every key, so a reused keyed runner
// repeats its first run exactly.
func TestShardedRunTwice(t *testing.T) {
	a, rel := compileSharded(t)
	r := New(a, WithPartitionKey("ID"))
	first, m1, err := RunOn(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	again, m2, err := RunOn(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || matchLines(first) != matchLines(again) || m1 != m2 {
		t.Errorf("second run differs:\n%s%+v\nvs\n%s%+v", matchLines(first), m1, matchLines(again), m2)
	}
}

// TestShardedStepError: the instance cap applies per key. A cap at the
// per-key peak holds although the keys together exceed it; one below
// trips the Fail policy.
func TestShardedStepError(t *testing.T) {
	a, rel := compileSharded(t)
	_, m, err := RunOn(New(a, WithPartitionKey("ID")), rel)
	if err != nil {
		t.Fatal(err)
	}
	peak := int(m.MaxSimultaneousInstances)
	if _, _, err := RunOn(New(a, WithPartitionKey("ID"), WithMaxInstances(peak)), rel); err != nil {
		t.Fatalf("per-key cap %d tripped: %v", peak, err)
	}
	if _, _, err := Run(a, rel, WithMaxInstances(peak)); err == nil {
		t.Fatal("test data broken: the unkeyed run stays under the per-key peak")
	}
	_, _, err = RunOn(New(a, WithPartitionKey("ID"), WithMaxInstances(1)), rel)
	if err == nil || !strings.Contains(err.Error(), "exceed the cap") {
		t.Errorf("err = %v, want instance cap error", err)
	}
}

// TestShardedTiedTimestamps: with every key sharing every timestamp, the
// keyed runner finds partitioned evaluation's matches, and each in the
// step of its own key's event.
func TestShardedTiedTimestamps(t *testing.T) {
	schema := shardedSchema(t)
	a, err := automaton.Compile(shardedPattern(t), schema)
	if err != nil {
		t.Fatal(err)
	}
	var evs []event.Event
	for r := 0; r < 6; r++ {
		for k := 0; k < 5; k++ {
			label := "A"
			if r%2 == 1 {
				label = "B"
			}
			evs = append(evs, event.Event{Seq: len(evs), Time: event.Time(r * 60),
				Attrs: []event.Value{event.Int(int64(k)), event.String(label)}})
		}
	}
	r := New(a, WithPartitionKey("ID"))
	var got []string
	for i := range evs {
		ms, err := r.Step(&evs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Events()[0].Attrs[0] != evs[i].Attrs[0] {
				t.Fatalf("event %d emitted another key's match %s", i, m)
			}
		}
		got = append(got, jsonLines(ms, schema)...)
	}
	got = append(got, jsonLines(r.Flush(), schema)...)
	want, _, _ := partitionedRun(a, evs, "ID", nil)
	slices.Sort(got)
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("tied timestamps: keyed %v\npartitioned %v", got, want)
	}
}

// TestKeyedSnapshotResume: a keyed snapshot cut anywhere mid-stream,
// restored and continued, yields the match bytes and Metrics of the
// uninterrupted run; a second snapshot of the restored runner is
// byte-identical to the first.
func TestKeyedSnapshotResume(t *testing.T) {
	schema, evs := overlapStream(t, 6)
	a := compile(t, groupPattern(), schema)
	spec := &pattern.AggSpec{Partition: "ID", Items: []pattern.AggItem{{Func: pattern.AggCount}}}
	plan := mustAggPlan(t, a, spec)
	for _, opts := range [][]Option{
		{WithPartitionKey("ID")},
		{WithPartitionKey("ID"), WithFilter(true), WithMaxInstances(30), WithOverloadPolicy(ShedStartStates)},
	} {
		ag := NewAggregator(plan)
		full := New(a, append(opts, WithAggregation(ag))...)
		want, err := keyedRun(full, evs, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := mustStats(ag)
		for _, cut := range []int{0, 1, len(evs) / 3, len(evs) / 2, len(evs) - 1, len(evs)} {
			ag := NewAggregator(plan)
			r := New(a, append(opts, WithAggregation(ag))...)
			got, err := stepLines(r, evs[:cut], 1)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := r.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(snap, []byte(`"version":3`)) {
				t.Fatalf("cut %d: keyed snapshot is not version 3: %.80s", cut, snap)
			}
			restored, err := RestoreRunnerBytes(a, snap, append(opts, WithAggregation(ag))...)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if again, _ := restored.SnapshotBytes(); !bytes.Equal(again, snap) {
				t.Fatalf("cut %d: snapshot of the restored runner differs", cut)
			}
			rest, err := keyedRun(restored, evs[cut:], 7)
			if err != nil {
				t.Fatal(err)
			}
			if got = append(got, rest...); !slices.Equal(got, want) {
				t.Fatalf("cut %d: resumed run emits %d matches, uninterrupted %d, or they differ", cut, len(got), len(want))
			}
			if restored.Metrics() != full.Metrics() {
				t.Fatalf("cut %d: Metrics %+v, want %+v", cut, restored.Metrics(), full.Metrics())
			}
			if s := mustStats(ag); !bytes.Equal(s, wantStats) {
				t.Fatalf("cut %d: stats %s, want %s", cut, s, wantStats)
			}
		}
	}
}

// TestKeyedSnapshotRefusesUnkeyed: keyed and unkeyed snapshots do not
// restore onto each other, nor onto another key attribute.
func TestKeyedSnapshotRefusesUnkeyed(t *testing.T) {
	a, rel := compileSharded(t)
	keyed, unkeyed := New(a, WithPartitionKey("ID")), New(a)
	for i := 0; i < rel.Len()/2; i++ {
		keyed.Step(rel.Event(i))
		unkeyed.Step(rel.Event(i))
	}
	ks, _ := keyed.SnapshotBytes()
	us, _ := unkeyed.SnapshotBytes()
	for name, try := range map[string]func() error{
		"keyed->unkeyed": func() error { _, err := RestoreRunnerBytes(a, ks); return err },
		"unkeyed->keyed": func() error { _, err := RestoreRunnerBytes(a, us, WithPartitionKey("ID")); return err },
		"ID->L":          func() error { _, err := RestoreRunnerBytes(a, ks, WithPartitionKey("L")); return err },
	} {
		if err := try(); err == nil || !strings.Contains(err.Error(), "partition key") {
			t.Errorf("%s: err = %v, want a partition key refusal", name, err)
		}
	}
}
