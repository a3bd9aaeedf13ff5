//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package engine

import (
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// blockStepper is what allocsPerEvent drives: a Runner or the test-only
// instance loop.
type blockStepper interface {
	StepBlock(event.Block) ([]Match, error)
	Flush() []Match
}

// allocsPerEvent steps evs in 64-event blocks on a fresh stepper, then
// a second pass shifted past the first by more than the window, and
// returns the mean allocations per event of the first pass, without the
// stepper's construction, and of the second, the steady state in which
// retired node chunks are reused.
func allocsPerEvent(t *testing.T, evs []event.Event, within event.Duration, fresh func() blockStepper) (first, steady float64) {
	t.Helper()
	const block = 64
	second := slices.Clone(evs)
	for i := range second {
		second[i].Time += evs[len(evs)-1].Time - evs[0].Time + event.Time(within) + 1
	}
	passes := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			r := fresh()
			for _, pass := range [][]event.Event{evs, second}[:n] {
				for lo := 0; lo < len(pass); lo += block {
					if _, err := r.StepBlock(event.Block{Events: pass[lo:min(lo+block, len(pass))]}); err != nil {
						t.Fatal(err)
					}
				}
			}
			r.Flush()
		})
	}
	built, one := testing.AllocsPerRun(3, func() { fresh() }), passes(1)
	return (one - built) / float64(len(evs)), (passes(2) - one) / float64(len(evs))
}

// peakChunks is the most filled node chunks r's arena held after any
// block of evs.
func peakChunks(t *testing.T, r blockStepper, arena *nodeArena, evs []event.Event) int {
	peak := 0
	for lo := 0; lo < len(evs); lo += 64 {
		if _, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+64, len(evs))]}); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(arena.filled))
	}
	return peak
}

// TestAggregateStepAllocations: on the group pattern over the
// overlapping stream — many instances in few classes, few of which
// accept — stepping aggregate-only allocates no more per event than the
// same runner enumerating. Against the instance loop, the class runner
// makes a buffer node per class where the loop made one per instance:
// its arena peaks at most half as high, and over the first pass
// aggregate-only allocates at most half as much per event and
// enumerating, where the match arena's chunks dominate, no more. Once
// retired chunks are reused, a steady stream allocates no node chunk on
// either. Accumulators copied into every fired transition's instance
// allocated about three times as much as enumeration.
func TestAggregateStepAllocations(t *testing.T) {
	schema, evs := overlapStream(t, 12)
	a := compile(t, groupPattern(), schema)
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}}}
	plan := mustAggPlan(t, a, spec)
	var ag *Aggregator
	aggOnly := func() []Option {
		ag = NewAggregator(plan)
		return []Option{WithFilter(true), WithAggregation(ag), WithAggregateOnly(true)}
	}
	folded, foldedSteady := allocsPerEvent(t, evs, a.Within, func() blockStepper { return New(a, aggOnly()...) })
	if ag.Folds() == 0 {
		t.Fatal("the aggregate-only run folded nothing")
	}
	enumerated, enumeratedSteady := allocsPerEvent(t, evs, a.Within, func() blockStepper { return New(a, WithFilter(true)) })
	refFolded, _ := allocsPerEvent(t, evs, a.Within, func() blockStepper { return newInstRef(a, aggOnly()...) })
	refEnumerated, _ := allocsPerEvent(t, evs, a.Within, func() blockStepper { return newInstRef(a, WithFilter(true)) })
	t.Logf("allocs/event, first pass: aggregate-only %.3f (instance loop %.3f), enumerating %.3f (instance loop %.3f); steady: %.3f and %.3f",
		folded, refFolded, enumerated, refEnumerated, foldedSteady, enumeratedSteady)
	if foldedSteady > enumeratedSteady || folded > enumerated {
		t.Errorf("aggregate-only StepBlock allocates %.3f/event (steady %.3f), more than enumerating's %.3f (%.3f)",
			folded, foldedSteady, enumerated, enumeratedSteady)
	}
	if folded > refFolded/2 || enumerated > refEnumerated {
		t.Errorf("the class runner allocates %.3f/event aggregate-only and %.3f enumerating; the instance loop %.3f and %.3f",
			folded, enumerated, refFolded, refEnumerated)
	}
	cls, ref := New(a, WithFilter(true)), newInstRef(a, WithFilter(true))
	if c, i := peakChunks(t, cls, &cls.arena, evs), peakChunks(t, ref, &ref.arena, evs); c > i/2 {
		t.Errorf("the class runner's arena peaks at %d filled chunks, the instance loop's at %d", c, i)
	}
}

// TestQ1NoiseStepAllocations: on the paper's Q1 over a stream that is
// mostly laboratory noise, where instances are few and classes save
// little, the class runner allocates no more per event than the
// instance loop in the steady state. This is where a per-class cost
// would surface in the served q1_noise, multi_query_wal and cluster_2p
// allocation figures.
func TestQ1NoiseStepAllocations(t *testing.T) {
	rel, err := chemo.Generate(chemo.Config{Patients: 30, CyclesPerPatient: 6, CycleGapDays: 21,
		StartSpreadDays: 300, NoisePerDay: 6, NoiseTypes: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := automaton.Compile(paperdata.QueryQ1(), rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	evs := rel.Events()
	_, classes := allocsPerEvent(t, evs, a.Within, func() blockStepper { return New(a, WithFilter(true)) })
	_, instances := allocsPerEvent(t, evs, a.Within, func() blockStepper { return newInstRef(a, WithFilter(true)) })
	t.Logf("steady allocs/event: classes %.4f, instance loop %.4f (%d events)", classes, instances, len(evs))
	if classes > instances {
		t.Errorf("the class runner allocates %.4f/event on Q1 over noise, more than the instance loop's %.4f", classes, instances)
	}
}
