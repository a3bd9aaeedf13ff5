package engine

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/event"
)

func mkEvent(tt event.Time, l string) event.Event {
	return event.Event{Time: tt, Attrs: []event.Value{
		event.Int(1), event.String(l), event.Float(0),
	}}
}

func TestReordererBasic(t *testing.T) {
	r := NewReorderer(5)
	var out []event.Event
	push := func(tt event.Time) {
		out = append(out, r.Push(mkEvent(tt, "A"))...)
	}
	push(10)
	push(8) // within slack, buffered
	push(12)
	push(20) // watermark 15 releases 8, 10, 12
	if len(out) != 3 || out[0].Time != 8 || out[1].Time != 10 || out[2].Time != 12 {
		t.Fatalf("released = %v", out)
	}
	out = append(out, r.Drain()...)
	if len(out) != 4 || out[3].Time != 20 {
		t.Fatalf("drain = %v", out)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d", r.Pending())
	}
}

func TestReordererLateDrop(t *testing.T) {
	r := NewReorderer(3)
	var late []event.Event
	r.Late = func(e event.Event) { late = append(late, e) }
	r.Push(mkEvent(100, "A"))
	if got := r.Push(mkEvent(90, "A")); got != nil {
		t.Errorf("too-late event released: %v", got)
	}
	if len(late) != 1 || late[0].Time != 90 {
		t.Errorf("late = %v", late)
	}
}

// TestReordererRandomisedSortedOutput: any arrival sequence whose
// lateness stays within the slack is restored to exact timestamp
// order.
func TestReordererRandomisedSortedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		slack := event.Duration(1 + rng.Intn(10))
		n := 50
		times := make([]event.Time, n)
		tt := event.Time(0)
		for i := range times {
			tt += event.Time(rng.Intn(4))
			times[i] = tt
		}
		// Perturb arrival order within the slack: each event may be
		// delayed past later events as long as its timestamp stays
		// within slack of the running maximum.
		arrival := append([]event.Time(nil), times...)
		for i := 1; i < n; i++ {
			j := i - 1 - rng.Intn(3)
			if j >= 0 && arrival[i]-arrival[j] <= event.Time(slack) && arrival[j]-arrival[i] <= event.Time(slack) {
				arrival[i], arrival[j] = arrival[j], arrival[i]
			}
		}
		r := NewReorderer(slack)
		dropped := 0
		r.Late = func(event.Event) { dropped++ }
		var out []event.Event
		for i, at := range arrival {
			e := mkEvent(at, "A")
			e.Seq = i
			out = append(out, r.Push(e)...)
		}
		out = append(out, r.Drain()...)
		if len(out)+dropped != n {
			t.Fatalf("trial %d: %d released + %d dropped != %d", trial, len(out), dropped, n)
		}
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Time < out[j].Time }) {
			t.Fatalf("trial %d: output not sorted", trial)
		}
	}
}

func TestReordererNegativeSlackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	NewReorderer(-1)
}

// TestReordererDedup: redelivered events with identical (time,
// payload) within the dedup window are dropped and counted; distinct
// events and duplicates with a different payload pass.
func TestReordererDedup(t *testing.T) {
	r := NewReorderer(5)
	r.DedupWindow = 10
	released := 0
	push := func(e event.Event) { released += len(r.Push(e)) }
	push(mkEvent(10, "A"))
	push(mkEvent(10, "A")) // exact redelivery: dropped
	push(mkEvent(10, "B")) // same time, different payload: kept
	push(mkEvent(11, "A")) // same payload, different time: kept
	if r.DuplicatesDropped != 1 {
		t.Errorf("DuplicatesDropped = %d, want 1", r.DuplicatesDropped)
	}
	released += len(r.Drain())
	if released != 3 {
		t.Errorf("released %d events, want 3", released)
	}
}

// TestReordererDedupIgnoresSeq: transports reassign sequence numbers
// on redelivery; dedup identity must not include them.
func TestReordererDedupIgnoresSeq(t *testing.T) {
	r := NewReorderer(0)
	r.DedupWindow = 100
	e1 := mkEvent(5, "A")
	e1.Seq = 1
	e2 := mkEvent(5, "A")
	e2.Seq = 99
	r.Push(e1)
	r.Push(e2)
	if r.DuplicatesDropped != 1 {
		t.Errorf("DuplicatesDropped = %d, want 1", r.DuplicatesDropped)
	}
}

// TestReordererDedupWindowExpires: identities older than the window
// are eventually forgotten, so the memory stays bounded and a genuine
// re-occurrence far in the future is NOT treated as a duplicate.
func TestReordererDedupWindowExpires(t *testing.T) {
	r := NewReorderer(0)
	r.DedupWindow = 10
	r.Push(mkEvent(0, "A"))
	// Advance far beyond the window (several prune intervals).
	for tt := event.Time(1); tt <= 50; tt++ {
		r.Push(mkEvent(tt, "B"))
	}
	r.Push(mkEvent(0, "A")) // would be a dup, but it is also too late for slack 0
	if len(r.recent) > 25 {
		t.Errorf("dedup memory not pruned: %d identities retained", len(r.recent))
	}
}

// TestReordererDedupOffByDefault: the zero value never drops.
func TestReordererDedupOffByDefault(t *testing.T) {
	r := NewReorderer(5)
	r.Push(mkEvent(10, "A"))
	r.Push(mkEvent(10, "A"))
	if r.DuplicatesDropped != 0 {
		t.Errorf("dedup active without DedupWindow")
	}
	if got := len(r.Drain()); got != 2 {
		t.Errorf("drained %d, want 2", got)
	}
}
