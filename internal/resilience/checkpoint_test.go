package resilience

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
)

func TestCheckpointEnvelopeRoundTrip(t *testing.T) {
	schema := testSchema()
	want := ckptState{
		srcLast: 41,
		reorder: engine.ReordererState{
			Buffered: []event.Event{
				{Seq: 3, Time: 30, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0.5)}},
				{Seq: 5, Time: 31, Attrs: []event.Value{event.Int(2), event.String("B"), event.Float(-1)}},
			},
			MaxSeen: 31,
			Seen:    true,
		},
		runner: []byte("opaque runner snapshot"),
	}
	data := encodeCheckpoint(schema, want)
	// Older writers kept an arrival counter in the slot after the source
	// offset; such an envelope decodes to the same state.
	slot := len(ckptMagic) + len(binary.AppendVarint(nil, want.srcLast))
	older := append(binary.AppendVarint(slices.Clone(data[:slot]), 17), data[slot+1:]...)
	for _, data := range [][]byte{data, older} {
		got, v2, err := decodeCheckpoint(schema, data)
		if err != nil || !v2 {
			t.Fatalf("decode: v2=%v err=%v", v2, err)
		}
		if got.srcLast != want.srcLast ||
			got.reorder.MaxSeen != want.reorder.MaxSeen || got.reorder.Seen != want.reorder.Seen {
			t.Fatalf("header mismatch: got %+v", got)
		}
		if string(got.runner) != string(want.runner) {
			t.Fatalf("runner payload mismatch")
		}
		if len(got.reorder.Buffered) != 2 {
			t.Fatalf("buffered = %d, want 2", len(got.reorder.Buffered))
		}
		for i, e := range got.reorder.Buffered {
			w := want.reorder.Buffered[i]
			if e.Seq != w.Seq || e.Time != w.Time || !reflect.DeepEqual(e.Attrs, w.Attrs) {
				t.Fatalf("buffered[%d] = %+v, want %+v", i, e, w)
			}
		}
	}
}

func TestCheckpointEnvelopeLegacyAndCorrupt(t *testing.T) {
	schema := testSchema()
	if _, v2, err := decodeCheckpoint(schema, []byte("a legacy raw runner snapshot")); v2 || err != nil {
		t.Fatalf("legacy payload: v2=%v err=%v, want false/nil", v2, err)
	}
	valid := encodeCheckpoint(schema, ckptState{srcLast: 7, runner: []byte("r")})
	for cut := len(ckptMagic) + 1; cut < len(valid); cut++ {
		if _, v2, err := decodeCheckpoint(schema, valid[:cut]); err == nil && v2 {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestCheckpointOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.ckpt")

	// Missing file: no watermark, no error.
	if _, ok, err := CheckpointOffset(path); ok || err != nil {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}

	// Legacy file: no watermark.
	if err := os.WriteFile(path, []byte("legacy snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := CheckpointOffset(path); ok || err != nil {
		t.Fatalf("legacy file: ok=%v err=%v", ok, err)
	}

	// v2 with a watermark.
	env := encodeCheckpoint(testSchema(), ckptState{srcLast: 123, runner: []byte("r")})
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	off, ok, err := CheckpointOffset(path)
	if err != nil || !ok || off != 123 {
		t.Fatalf("v2 file: off=%d ok=%v err=%v, want 123/true/nil", off, ok, err)
	}

	// v2 that never received an event: watermark unknown.
	env = encodeCheckpoint(testSchema(), ckptState{srcLast: -1, runner: []byte("r")})
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := CheckpointOffset(path); ok || err != nil {
		t.Fatalf("no-watermark file: ok=%v err=%v", ok, err)
	}
}

// TestResumeFromV2WithBufferedEvents: a drain checkpoint taken while
// the reorderer still buffers events (slack > 0 never released them)
// must restore those events, so the resumed run completes the match
// without the feeder re-sending anything below the watermark.
func TestResumeFromV2WithBufferedEvents(t *testing.T) {
	a := testAutomaton(t, 100)
	ckpt := filepath.Join(t.TempDir(), "buffered.ckpt")

	// Pushing B@9 advances the watermark past A@0, releasing (and
	// checkpointing, with CheckpointEvery=1) while B itself is still
	// held back by the slack — so the persisted state has A consumed,
	// B in the reorderer buffer, and watermark srcLast=1.
	in := make(chan event.Event)
	ctx, cancel := context.WithCancel(context.Background())
	out, s := supervise(t, ctx, a, nil, in, Config{
		Slack:           5,
		CheckpointEvery: 1,
		CheckpointPath:  ckpt,
	})
	rel := event.NewRelation(testSchema())
	rel.MustAppend(0, event.Int(1), event.String("A"), event.Float(0))
	rel.MustAppend(9, event.Int(2), event.String("B"), event.Float(0))
	for i := 0; i < rel.Len(); i++ {
		e := *rel.Event(i)
		e.Seq = i // source offsets 0..1
		in <- e
	}
	waitFor(t, func() bool {
		off, ok, _ := CheckpointOffset(ckpt)
		return ok && off == 1
	})
	cancel()
	for range out {
	}
	if s.Restarts() != 0 {
		t.Fatalf("unexpected restarts: %d", s.Restarts())
	}

	// Resume with NO further input: Drain must release the restored
	// B@9 and complete the A→B match entirely from checkpoint state.
	empty := make(chan event.Event)
	close(empty)
	out2, s2 := supervise(t, context.Background(), a, nil, empty, Config{
		Slack:          5,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	got := collect(out2)
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("resumed run emitted %d matches, want the 1 completed A→B match: %v", len(got), got)
	}
}

// TestResumeSlackZeroStepsBufferedEvents: a slack-0 pipeline has no
// reorderer, yet a checkpoint written by one that held back its newest
// events (B@9 here, behind the A@0 it stepped) must lose nothing: the
// buffered events are stepped first, and the restored watermark time
// still refuses an event earlier than them.
func TestResumeSlackZeroStepsBufferedEvents(t *testing.T) {
	a := testAutomaton(t, 100)
	r := engine.New(a)
	if _, err := r.Step(&event.Event{Seq: 0, Time: 0,
		Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}); err != nil {
		t.Fatal(err)
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "held-back.ckpt")
	held := event.Event{Seq: 1, Time: 9, Attrs: []event.Value{event.Int(2), event.String("B"), event.Float(0)}}
	if err := os.WriteFile(ckpt, encodeCheckpoint(testSchema(), ckptState{srcLast: 1, runner: snap,
		reorder: engine.ReordererState{Buffered: []event.Event{held}, MaxSeen: 9, Seen: true}}), 0o644); err != nil {
		t.Fatal(err)
	}
	in := sendBlocks([]event.Block{{Events: []event.Event{
		{Seq: 2, Time: 5, Attrs: []event.Value{event.Int(3), event.String("A"), event.Float(0)}},
		{Seq: 3, Time: 200, Attrs: []event.Value{event.Int(4), event.String("C"), event.Float(0)}},
	}}})
	var reasons []error
	out, s := Supervise(context.Background(), a, nil, in, Config{
		CheckpointPath: ckpt,
		Resume:         true,
		DeadLetter:     func(e event.Event, reason error) { reasons = append(reasons, reason) },
	})
	got := collectBlocks(out)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "{x/e0, y/e1}" {
		t.Errorf("matches %v, want the A@0→B@9 match completed by the buffered event", got)
	}
	if len(reasons) != 1 || !errors.Is(reasons[0], ErrLate) {
		t.Errorf("dead letters %v, want the A@5 event refused as late", reasons)
	}
}

// waitFor polls cond until it holds or the test times out via the
// test framework's deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
