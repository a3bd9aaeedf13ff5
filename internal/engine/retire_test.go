package engine

import (
	"bytes"
	"testing"

	"repro/internal/event"
)

// TestRetireInAcceptingExpiryStep pins where retirement runs. 128
// instances bind x at time 0 (chunk 0) and y at time 1 (chunk 1), then
// wait in the accepting state. The A event at time 21 is the step in
// which all of them expire and walk both chunks to build their matches,
// in which its own binding overflows chunk 1 into the filled list, and
// at whose end both chunks are out of the window and retire. Retiring
// any earlier in that step would build the matches from zeroed nodes.
// The reference is a runner that never retires.
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

	run := func(r *Runner) (out []byte, filledAt21 int) {
		emit := func(ms []Match) {
			for _, m := range ms {
				b, err := MatchJSON(m, a.Schema)
				if err != nil {
					t.Fatal(err)
				}
				out = append(append(out, b...), '\n')
			}
		}
		for i := range stream {
			ms, err := r.Step(&stream[i])
			if err != nil {
				t.Fatal(err)
			}
			if stream[i].Time == 21 {
				if len(ms) != nodeChunk {
					t.Fatalf("%d instances expired accepting at time 21, want %d", len(ms), nodeChunk)
				}
				filledAt21 = len(r.arena.filled)
			}
			emit(ms)
		}
		emit(r.Flush())
		return out, filledAt21
	}
	got, filled := run(New(a))
	want, kept := run(New(a, func(c *config) { c.keepChunks = true }))
	if kept != 2 {
		t.Fatalf("the never-retiring runner holds %d filled chunks after time 21, want 2: the step did not fill a chunk", kept)
	}
	if filled != 0 {
		t.Errorf("%d filled chunks survive the step at time 21, want 0", filled)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("match bytes differ from the never-retiring runner:\n got %s\nwant %s", got, want)
	}
	if n := bytes.Count(want, []byte{'\n'}); n != nodeChunk+1 {
		t.Errorf("%d matches, want %d", n, nodeChunk+1)
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
