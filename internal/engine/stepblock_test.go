package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automaton"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/pattern"
)

// renderMatches appends one line per match: its MatchJSON bytes, or its
// String form when a bound value has no JSON rendering (NaN, ±Inf).
func renderMatches(out []byte, ms []Match, schema *event.Schema) []byte {
	for _, m := range ms {
		b, err := MatchJSON(m, schema)
		if err != nil {
			b = []byte(m.String())
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

// overlapStream renders the overlapping-patients chemo stream: patients
// following the six-cycle protocol with little noise, each starting
// 756 h after the previous one, so a 264 h window holds several
// patients' medication events.
func overlapStream(t testing.TB, patients int) (*event.Schema, []event.Event) {
	t.Helper()
	var schema *event.Schema
	var evs []event.Event
	for i := 0; i < patients; i++ {
		rel, err := chemo.Generate(chemo.Config{Patients: 1, CyclesPerPatient: 6, CycleGapDays: 21,
			NoisePerDay: 0.5, NoiseTypes: 20, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		schema = rel.Schema()
		shift := event.Time(i*756) * event.Time(event.Hour)
		for _, e := range rel.Events() {
			e.Time += shift
			e.Attrs[0] = event.Int(int64(i + 1))
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	for i := range evs {
		evs[i].Seq = i
	}
	return schema, evs
}

// groupPattern is PERMUTE(c, d, p+) THEN (b) with every variable of
// the first set matching 'P' (Experiment 2's P3, Theorem 3's case): on
// overlapStream its instance set and match count grow fast.
func groupPattern() *pattern.Pattern {
	return pattern.New().
		Set(pattern.Var("c"), pattern.Var("d"), pattern.Plus("p")).
		Set(pattern.Var("b")).
		WhereConst("c", "L", pattern.Eq, event.String("P")).
		WhereConst("d", "L", pattern.Eq, event.String("P")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		Within(event.Duration(264 * event.Hour)).MustBuild()
}

// TestStepBlockIsStep: StepBlock is Step over each of the block's
// events — the same match bytes, the same error and the same Metrics,
// whatever the block size, filter setting, overload policy and partition
// key; a keyed runner's output order thus depends on the stream only. Before
// StepBlock lost its block-start sweep, InstanceIterations,
// ExpiredInstances and the overload counters read differently.
func TestStepBlockIsStep(t *testing.T) {
	type input struct {
		name string
		a    *automaton.Automaton
		evs  []event.Event
		cap  int
	}
	schema, chemoEvs := overlapStream(t, 12)
	inputs := []input{{name: "chemo-overlap", a: compile(t, groupPattern(), schema), evs: chemoEvs, cap: 200}}
	for trial := 0; len(inputs) < 13; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		p := randIdentityPattern(rng)
		if p == nil {
			continue
		}
		a, err := automaton.Compile(p, simpleSchema())
		if err != nil {
			continue
		}
		inputs = append(inputs, input{name: fmt.Sprintf("random-%d", trial), a: a,
			evs: randIdentityEvents(rng, 150+rng.Intn(150)), cap: 2 + rng.Intn(6)})
	}

	stepped := func(a *automaton.Automaton, evs []event.Event, opts []Option) ([]byte, error, Metrics) {
		r := New(a, opts...)
		var out []byte
		for i := range evs {
			ms, err := r.Step(&evs[i])
			out = renderMatches(out, ms, a.Schema)
			if err != nil {
				return out, err, r.Metrics()
			}
		}
		return renderMatches(out, r.Flush(), a.Schema), nil, r.Metrics()
	}
	blocked := func(a *automaton.Automaton, evs []event.Event, opts []Option, size int) ([]byte, error, Metrics) {
		r := New(a, opts...)
		var out []byte
		for lo := 0; lo < len(evs); lo += size {
			ms, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+size, len(evs))]})
			out = renderMatches(out, ms, a.Schema)
			if err != nil {
				return out, err, r.Metrics()
			}
		}
		return renderMatches(out, r.Flush(), a.Schema), nil, r.Metrics()
	}

	for _, in := range inputs {
		for _, filter := range []bool{false, true} {
			for _, pol := range []OverloadPolicy{Fail, RejectNew, DropOldest, ShedStartStates} {
				for _, capped := range []bool{false, true} {
					for _, key := range []string{"", "ID"} {
						if !capped && pol != Fail {
							continue // without a cap the policy never acts
						}
						opts := []Option{WithFilter(filter)}
						if capped {
							opts = append(opts, WithMaxInstances(in.cap), WithOverloadPolicy(pol))
						}
						if key != "" {
							opts = append(opts, WithPartitionKey(key))
						}
						want, wantErr, wantM := stepped(in.a, in.evs, opts)
						for _, size := range []int{1, 7, 256} {
							name := fmt.Sprintf("%s/filter=%v/cap=%v/%s/key=%s/block=%d", in.name, filter, capped, pol, key, size)
							got, gotErr, gotM := blocked(in.a, in.evs, opts, size)
							if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
								t.Fatalf("%s: error %v, Step gave %v", name, gotErr, wantErr)
							}
							if string(got) != string(want) {
								t.Fatalf("%s: match bytes differ from Step's\nStepBlock:\n%s\nStep:\n%s", name, got, want)
							}
							if gotM != wantM {
								t.Fatalf("%s: Metrics differ\nStepBlock: %+v\nStep:      %+v", name, gotM, wantM)
							}
						}
					}
				}
			}
		}
	}
}

// TestStepErrorReturnsOnlyCompletedMatches: when an event fails, Step
// returns no match and StepBlock returns exactly the matches of the
// events before it, never those the failing event completed.
func TestStepErrorReturnsOnlyCompletedMatches(t *testing.T) {
	a := compile(t, seqPattern(t, 5), simpleSchema())
	opts := []Option{WithStrategy(SkipTillAny), WithMaxInstances(5)}
	// C@10 expires the A@0-B@1 instance: one match. At B@26 the A@20-B@21
	// instance expires (a second match) while the three A's at 24-25
	// each both move and stay: six instances, one over the cap.
	evs := rel(t, "A@0", "B@1", "C@10", "A@20", "B@21", "A@24", "A@25", "A@25", "B@26").Events()
	const fail = 8
	free := New(a, WithStrategy(SkipTillAny))
	if _, err := free.StepBlock(event.Block{Events: evs[:fail]}); err != nil {
		t.Fatal(err)
	}
	if ms, _ := free.Step(&evs[fail]); len(ms) != 1 || free.ActiveInstances() != 6 {
		t.Fatalf("uncapped, the failing step completes %d matches and leaves %d instances, want 1 and 6",
			len(ms), free.ActiveInstances())
	}

	r := New(a, opts...)
	var before []string
	for i := range evs {
		ms, err := r.Step(&evs[i])
		if (err != nil) != (i == fail) {
			t.Fatalf("step %d: err %v, want the cap to trip at step %d", i, err, fail)
		}
		if err != nil {
			if ms != nil {
				t.Fatalf("Step returned %d matches with its error", len(ms))
			}
			break
		}
		before = append(before, matchStrings(ms)...)
	}
	blk := New(a, opts...)
	ms, err := blk.StepBlock(event.Block{Events: evs})
	if err == nil {
		t.Fatal("StepBlock passed the cap")
	}
	if len(before) != 1 || fmt.Sprint(matchStrings(ms)) != fmt.Sprint(before) {
		t.Errorf("StepBlock returned %v with its error, want the match completed before the failing event, %v",
			matchStrings(ms), before)
	}
	for _, m := range blk.matchBuf[:cap(blk.matchBuf)][len(ms):] {
		if m.Bindings != nil {
			t.Fatal("the failing event's matches are left in the reused buffer")
		}
	}
}

// TestMatchBufferHoldsNoStaleMatches: the reused result buffer holds
// the last call's matches and nothing behind them, so a step that
// returns fewer matches than the one before leaves no older Match — and
// through its bindings no old match-arena chunk — reachable from the
// runner.
func TestMatchBufferHoldsNoStaleMatches(t *testing.T) {
	a := compile(t, seqPattern(t, 5), simpleSchema())
	evs := rel(t, "A@0", "A@0", "A@0", "B@1", "A@10", "B@11", "C@20", "C@21").Events()
	stale := func(r *Runner, returned int) {
		t.Helper()
		buf := r.matchBuf[:cap(r.matchBuf)]
		for i := returned; i < len(buf); i++ {
			if buf[i].Bindings != nil {
				t.Fatalf("stale match %d behind the %d returned is still reachable", i, returned)
			}
		}
		for _, em := range r.emits[:cap(r.emits)] {
			if em.head != nil {
				t.Fatal("stale first-match alert is still reachable")
			}
		}
	}
	for _, opts := range [][]Option{nil, {WithEmitOnAccept(true)}} {
		r := New(a, opts...)
		prev, shrank := 0, false
		for i := range evs {
			ms, err := r.Step(&evs[i])
			if err != nil {
				t.Fatal(err)
			}
			stale(r, len(ms))
			shrank = shrank || len(ms) < prev
			prev = len(ms)
		}
		stale(r, len(r.Flush()))
		if !shrank {
			t.Fatal("no step returned fewer matches than the one before")
		}

		// The first block completes more matches than the second.
		b := New(a, opts...)
		first, err := b.StepBlock(event.Block{Events: evs[:6]})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := b.StepBlock(event.Block{Events: evs[6:]})
		if err != nil || len(ms) >= len(first) {
			t.Fatalf("blocks completed %d then %d matches (err %v), want fewer the second time", len(first), len(ms), err)
		}
		stale(b, len(ms))
	}
}
