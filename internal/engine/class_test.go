package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/pattern"
)

// TestClassMultiplicitySaturates is Theorem 3's blow-up past int64:
// PERMUTE(p+, q+) THEN (b), with p and q both matching 'P', over 70 P
// events inside one window. Every P fires both loops of every {p, q}
// instance, so each start has about 2^k lineages after k events — a
// stream the instance loop could never step. The class runner holds at
// most three classes per start, and the instance counts read
// math.MaxInt64, never a wrapped negative, and so do a keyed runner's
// sums over two such keys. Under a cap and Fail, every
// step over it returns the cap error, the P events' and a following
// B's, which moves about 2^69 instances into the accepting state: the
// count is read off the classes, no path is enumerated.
func TestClassMultiplicitySaturates(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("p"), pattern.Plus("q")).
		Set(pattern.Var("b")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("q", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		Within(1000).MustBuild()
	a := compile(t, p, simpleSchema())
	// 140 P events of two alternating IDs, then a B.
	evs := make([]event.Event, 141)
	for i := range evs {
		l := "P"
		if i == len(evs)-1 {
			l = "B"
		}
		evs[i] = event.Event{Seq: i, Time: event.Time(i),
			Attrs: []event.Value{event.Int(int64(i % 2)), event.String(l), event.Float(0)}}
	}
	saturated := func(r *Runner) {
		t.Helper()
		m := r.Metrics()
		for name, v := range map[string]int64{"MaxSimultaneousInstances": m.MaxSimultaneousInstances,
			"InstancesCreated": m.InstancesCreated, "ActiveInstances()": int64(r.ActiveInstances())} {
			if v != math.MaxInt64 {
				t.Errorf("%s = %d, want math.MaxInt64", name, v)
			}
		}
		for name, v := range map[string]int64{"InstanceIterations": m.InstanceIterations,
			"TransitionsAttempted": m.TransitionsAttempted, "TransitionsFired": m.TransitionsFired} {
			if v < 0 {
				t.Errorf("%s wrapped to %d", name, v)
			}
		}
		if n := len(r.classes); n > 3*len(evs) {
			t.Errorf("%d live classes, want at most three per start", n)
		}
	}

	free := New(a)
	if _, err := free.StepBlock(event.Block{Events: evs[:70]}); err != nil {
		t.Fatal(err)
	}
	saturated(free)
	// Each key saturates on its 70 P events, and so must their sum.
	keyed := New(a, WithPartitionKey("ID"))
	if _, err := keyed.StepBlock(event.Block{Events: evs[:140]}); err != nil {
		t.Fatal(err)
	}
	saturated(keyed)

	capped := New(a, WithMaxInstances(1000))
	tripped := false
	for i := range evs {
		ms, err := capped.Step(&evs[i])
		if err == nil && (tripped || i == len(evs)-1) {
			t.Fatalf("step %d passed the cap of 1000", i)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "exceed the cap of 1000") || len(ms) != 0 {
				t.Fatalf("step %d: %d matches and error %v, want the cap error alone", i, len(ms), err)
			}
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("the stream never tripped the cap")
	}
	saturated(capped)
}
