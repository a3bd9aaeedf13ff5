package engine

import (
	"slices"
	"testing"

	"repro/internal/event"
)

// TestShardedMaxTimeDoesNotCorruptOrdering: a keyed runner keeps no
// time sentinel of its own, so even an event at event.MaxTime — which
// a supervised pipeline dead-letters before any runner sees it — is
// stepped like any other, and the output is partitioned evaluation's.
func TestShardedMaxTimeDoesNotCorruptOrdering(t *testing.T) {
	a, rel := compileSharded(t)
	evs := append(rel.Events(), event.Event{Seq: rel.Len(), Time: event.MaxTime,
		Attrs: []event.Value{event.Int(0), event.String("B")}})
	got, err := keyedRun(New(a, WithPartitionKey("ID")), evs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := partitionedRun(a, evs, "ID", nil)
	slices.Sort(got)
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("keyed %v\npartitioned %v", got, want)
	}
}

// TestReordererRejectsSentinels: the reorderer routes events carrying
// reserved sentinel timestamps to Late instead of letting them poison
// maxSeen (a MaxTime event would instantly classify every real event
// as too late).
func TestReordererRejectsSentinels(t *testing.T) {
	ro := NewReorderer(10)
	var late []event.Time
	ro.Late = func(e event.Event) { late = append(late, e.Time) }
	if out := ro.Push(event.Event{Time: event.MaxTime}); out != nil {
		t.Fatalf("MaxTime released %d events", len(out))
	}
	if out := ro.Push(event.Event{Time: event.MinTime}); out != nil {
		t.Fatalf("MinTime released %d events", len(out))
	}
	// A normal event afterwards must still be accepted, not late.
	ro.Push(event.Event{Time: 100, Seq: 0})
	got := ro.Drain()
	if len(got) != 1 || got[0].Time != 100 {
		t.Fatalf("normal event after sentinels: drained %v", got)
	}
	if len(late) != 2 || late[0] != event.MaxTime || late[1] != event.MinTime {
		t.Fatalf("late callback saw %v, want both sentinels", late)
	}
}

// TestReordererSlackUnderflow: with events near the bottom of the time
// domain, maxSeen - Slack used to wrap around to a huge positive
// watermark, releasing everything immediately and marking every
// subsequent event late. The subtraction now saturates.
func TestReordererSlackUnderflow(t *testing.T) {
	ro := NewReorderer(100)
	var late int
	ro.Late = func(event.Event) { late++ }
	lo := event.MinTime + 1 // smallest non-sentinel time
	if out := ro.Push(event.Event{Time: lo, Seq: 0}); len(out) != 0 {
		t.Fatalf("event at MinTime+1 released immediately: %v", out)
	}
	if out := ro.Push(event.Event{Time: lo + 1, Seq: 1}); len(out) != 0 {
		t.Fatalf("event at MinTime+2 released immediately: %v", out)
	}
	if late != 0 {
		t.Fatalf("%d events misclassified as late near MinTime", late)
	}
	got := ro.Drain()
	if len(got) != 2 || got[0].Time != lo || got[1].Time != lo+1 {
		t.Fatalf("drained %v, want the two pushed events in order", got)
	}
}

// TestReordererDedupNearMinTime exercises the dedup window's prune
// arithmetic at the bottom of the time domain.
func TestReordererDedupNearMinTime(t *testing.T) {
	ro := NewReorderer(0)
	ro.DedupWindow = 50
	lo := event.MinTime + 1
	ro.Push(event.Event{Time: lo, Attrs: []event.Value{event.Int(7)}, Seq: 0})
	ro.Push(event.Event{Time: lo, Attrs: []event.Value{event.Int(7)}, Seq: 1})
	if ro.DuplicatesDropped != 1 {
		t.Fatalf("DuplicatesDropped = %d, want 1", ro.DuplicatesDropped)
	}
}
