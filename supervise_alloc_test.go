//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package ses_test

import (
	"context"
	"testing"

	"repro"
)

// TestSuperviseUnrecoverableAllocations: a supervisor that can neither
// restart (MaxRestarts < 0) nor persist a checkpoint cuts none and keeps
// no block for replay, so it allocates about what the Step loop does
// plus the one event copy it owns per received event.
func TestSuperviseUnrecoverableAllocations(t *testing.T) {
	rel, q := smallD1(t)
	events := make([]ses.Event, rel.Len())
	for i := range events {
		events[i] = *rel.Event(i)
	}
	var sup *ses.StreamSupervisor
	run := func() {
		in := make(chan ses.Event, len(events))
		for _, e := range events {
			in <- e
		}
		close(in)
		var out <-chan ses.Match
		var err error
		out, sup, err = q.Supervise(context.Background(), in, ses.SuperviseConfig{MaxRestarts: -1}, ses.WithFilter(true))
		if err != nil {
			t.Fatal(err)
		}
		for range out {
		}
	}
	perRun := testing.AllocsPerRun(5, run)
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sup.Checkpoints(); n != 0 {
		t.Errorf("%d checkpoints, want none", n)
	}
	perEvent := perRun / float64(len(events))
	t.Logf("%.0f allocations per run, %.3f per event", perRun, perEvent)
	if perEvent > 1.05 {
		t.Errorf("%.3f allocations per event, want at most 1.05", perEvent)
	}
}
