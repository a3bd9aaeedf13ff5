//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package engine

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pattern"
)

// TestAggregateStepAllocations: on the group pattern over the
// overlapping stream — many instances, few of which accept — stepping
// aggregate-only allocates no more per event than the same runner
// enumerating. Accumulators copied into every fired transition's
// instance allocated about three times as much as enumeration.
func TestAggregateStepAllocations(t *testing.T) {
	schema, evs := overlapStream(t, 12)
	a := compile(t, groupPattern(), schema)
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}}}
	plan := mustAggPlan(t, a, spec)
	const block = 64
	pass := func(opts ...Option) func() {
		return func() {
			r := New(a, append(opts, WithFilter(true))...)
			for lo := 0; lo < len(evs); lo += block {
				if _, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+block, len(evs))]}); err != nil {
					t.Fatal(err)
				}
			}
			r.Flush()
		}
	}
	ag := NewAggregator(plan)
	folded := testing.AllocsPerRun(5, pass(WithAggregation(ag), WithAggregateOnly(true)))
	if ag.Folds() == 0 {
		t.Fatal("the aggregate-only run folded nothing")
	}
	enumerated := testing.AllocsPerRun(5, pass())
	n := float64(len(evs))
	t.Logf("allocs/event: aggregate-only %.3f, enumerating %.3f (%d events, %d folds)",
		folded/n, enumerated/n, len(evs), ag.Folds())
	if folded > enumerated {
		t.Errorf("aggregate-only StepBlock allocates %.3f/event, more than enumerating's %.3f/event", folded/n, enumerated/n)
	}
}
