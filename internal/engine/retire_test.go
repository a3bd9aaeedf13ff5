package engine

import (
	"slices"
	"testing"

	"repro/internal/event"
)

// oldestReachable returns the earliest event time of any buffer node
// reachable from r's classes, keyed sub-runners' included, through prev
// and alt, and whether there is one.
func oldestReachable(r *Runner) (event.Time, bool) {
	seen := map[*node]bool{}
	oldest, any := event.Time(0), false
	var walk func(n *node)
	walk = func(n *node) {
		for ; n != nil && !seen[n]; n = n.prev {
			seen[n] = true
			if !any || n.ev.Time < oldest {
				oldest, any = n.ev.Time, true
			}
			walk(n.alt)
		}
	}
	runners := []*Runner{r}
	if r.keyed != nil {
		runners = append(runners, r.keyed.subs...)
	}
	for _, s := range runners {
		for _, c := range s.classes {
			walk(c.head)
		}
	}
	return oldest, any
}

// assertWindowReachable fails when a buffer node more than τ older than
// the clock is reachable after a step: every live class's first binding
// is within τ, and every node of its paths is no older.
func assertWindowReachable(t *testing.T, r *Runner) {
	t.Helper()
	if oldest, ok := oldestReachable(r); ok && event.Duration(r.clock-oldest) > r.a.Within {
		t.Fatalf("a node bound at %d is reachable at clock %d, more than τ = %d behind", oldest, r.clock, r.a.Within)
	}
}

// TestRetireInAcceptingExpiryStep pins where retirement runs. 128
// instances bind x at time 0 (chunk 0) and y at time 1 (chunk 1), then
// wait in the accepting state. The A event at time 21 is the step in
// which all of them expire and walk both chunks to build their matches,
// in which its own binding overflows chunk 1 into the filled list, and
// at whose end both chunks are out of the window and retire. Retiring
// any earlier in that step would build the matches from zeroed nodes,
// so every match is checked binding by binding against the stream.
// After every step no node older than τ is reachable from the classes.
func TestRetireInAcceptingExpiryStep(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	var stream []event.Event
	add := func(l string, tm event.Time) {
		stream = append(stream, event.Event{Seq: len(stream), Time: tm,
			Attrs: []event.Value{event.Int(int64(len(stream))), event.String(l), event.Float(0)}})
	}
	for i := 0; i < nodeChunk; i++ {
		add("A", 0)
	}
	add("B", 1)
	add("A", 21)
	add("B", 22)
	const b1, a21, b22 = nodeChunk, nodeChunk + 1, nodeChunk + 2

	// want[i] is the i-th match: x on the i-th A at time 0 and y on B@1,
	// then x on A@21 and y on B@22 at the flush.
	var want [][2]int
	for i := 0; i < nodeChunk; i++ {
		want = append(want, [2]int{i, b1})
	}
	want = append(want, [2]int{a21, b22})

	r := New(a)
	var got []Match
	for i := range stream {
		if i == a21 && (len(r.arena.filled) != 1 || len(r.arena.chunk) != nodeChunk) {
			t.Fatalf("before the step at time 21 the arena holds %d filled chunks and %d nodes in the current one, want 1 and %d: the step would not overflow",
				len(r.arena.filled), len(r.arena.chunk), nodeChunk)
		}
		ms, err := r.Step(&stream[i])
		if err != nil {
			t.Fatal(err)
		}
		assertWindowReachable(t, r)
		if i == a21 {
			if len(ms) != nodeChunk {
				t.Fatalf("%d instances expired accepting at time 21, want %d", len(ms), nodeChunk)
			}
			if n := len(r.arena.filled); n != 0 {
				t.Errorf("%d filled chunks survive the step at time 21, want 0", n)
			}
		}
		got = append(got, ms...)
	}
	got = append(got, r.Flush()...)

	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	for i, m := range got {
		w := want[i]
		if len(m.Bindings) != 2 {
			t.Fatalf("match %d = %s, want {x/e%d, y/e%d}", i, m, w[0], w[1])
		}
		for k, bd := range m.Bindings {
			e := stream[w[k]]
			if bd.Var != []string{"x", "y"}[k] || len(bd.Events) != 1 || bd.Events[0].Seq != e.Seq ||
				bd.Events[0].Time != e.Time || !slices.EqualFunc(bd.Events[0].Attrs, e.Attrs, event.Value.Equal) {
				t.Fatalf("match %d = %s, want {x/e%d, y/e%d}", i, m, w[0], w[1])
			}
		}
	}
}

// TestStepRejectsOutOfOrder: the window arguments (expiry, chunk
// retirement) rest on time order, so Step refuses to go back in time.
func TestStepRejectsOutOfOrder(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	r := New(a)
	in := rel(t, "A@5", "B@6")
	if _, err := r.Step(in.Event(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(in.Event(0)); err == nil {
		t.Fatal("Step accepted an event earlier than the previous one")
	}
	if _, err := r.Step(in.Event(1)); err != nil {
		t.Fatalf("equal timestamps are in order: %v", err)
	}
	r.Reset()
	if _, err := r.Step(in.Event(0)); err != nil {
		t.Fatalf("Reset must restart the clock: %v", err)
	}
}
