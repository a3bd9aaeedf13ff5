package ses_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chemo"
	"repro/internal/resilience"
	"repro/internal/server"
)

// smallD1 returns dataset D1 of the small chemotherapy profile (4,313
// events) and the paper's Q1 compiled over its schema.
func smallD1(t testing.TB) (*ses.Relation, *ses.Query) {
	t.Helper()
	ds, err := chemo.Datasets(chemo.Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds[0], ses.MustCompile(q1Text, ds[0].Schema())
}

// feed sends the relation's events on a fresh channel and closes it.
func feed(rel *ses.Relation) <-chan ses.Event {
	in := make(chan ses.Event)
	go func() {
		defer close(in)
		for i := 0; i < rel.Len(); i++ {
			in <- *rel.Event(i)
		}
	}()
	return in
}

// TestSuperviseIsStepLoop: over an in-order stream, Query.Supervise
// emits exactly what a Step loop followed by Flush returns, byte for
// byte and in the same order, keyed and unkeyed, with the filter on and
// off, whether or not the supervisor can recover.
func TestSuperviseIsStepLoop(t *testing.T) {
	rel, q := smallD1(t)
	render := func(t *testing.T, lines *strings.Builder, ms ...ses.Match) {
		for _, m := range ms {
			b, err := ses.MatchJSON(m, rel.Schema())
			if err != nil {
				t.Fatal(err)
			}
			lines.Write(b)
			lines.WriteByte('\n')
		}
	}
	for _, key := range []string{"", "ID"} {
		for _, filter := range []bool{false, true} {
			opts := []ses.Option{ses.WithFilter(filter)}
			if key != "" {
				opts = append(opts, ses.WithPartitionKey(key))
			}
			t.Run(fmt.Sprintf("key=%q/filter=%v", key, filter), func(t *testing.T) {
				var want strings.Builder
				r := q.Runner(opts...)
				for i := 0; i < rel.Len(); i++ {
					ms, err := r.Step(rel.Event(i))
					if err != nil {
						t.Fatal(err)
					}
					render(t, &want, ms...)
				}
				render(t, &want, r.Flush()...)
				if want.Len() == 0 {
					t.Fatal("the step loop found no match")
				}
				for _, cfg := range []ses.SuperviseConfig{{}, {MaxRestarts: -1}} {
					out, sup, err := q.Supervise(context.Background(), feed(rel), cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					var got strings.Builder
					for m := range out {
						render(t, &got, m)
					}
					if err := sup.Err(); err != nil {
						t.Fatal(err)
					}
					if got.String() != want.String() {
						t.Errorf("MaxRestarts %d: supervised lines differ from the step loop's:\n%s\nwant:\n%s",
							cfg.MaxRestarts, got.String(), want.String())
					}
					if sup.Metrics() != r.Metrics() {
						t.Errorf("MaxRestarts %d: metrics %+v, step loop %+v", cfg.MaxRestarts, sup.Metrics(), r.Metrics())
					}
				}
			})
		}
	}
}

// TestSuperviseNumbersLikeServer: Query.Supervise numbers events by
// arrival, as a served query's stream is numbered, so one late event —
// earlier than the high-water at slack 0, dead-lettered by the library
// and withheld by the server — shifts no later seq on either side: the
// library and an in-process server give the same MatchJSON lines, seq
// included. The library's drain checkpoint records the arrival position
// of the last event.
func TestSuperviseNumbersLikeServer(t *testing.T) {
	rel, q := smallD1(t)
	mid := rel.Len() / 2
	late := *rel.Event(mid)
	late.Time = rel.Event(mid-1).Time - 1
	stream := make([]ses.Event, 0, rel.Len()+1)
	for i := 0; i < rel.Len(); i++ {
		if i == mid {
			stream = append(stream, late)
		}
		stream = append(stream, *rel.Event(i))
	}

	in := make(chan ses.Event)
	go func() {
		defer close(in)
		for _, e := range stream {
			in <- e
		}
	}()
	ckpt := filepath.Join(t.TempDir(), "q1.ckpt")
	out, sup, err := q.Supervise(context.Background(), in, ses.SuperviseConfig{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	var lib []string
	for m := range out {
		b, err := ses.MatchJSON(m, rel.Schema())
		if err != nil {
			t.Fatal(err)
		}
		lib = append(lib, string(b))
	}
	if err := sup.Err(); err != nil || sup.DeadLetters() != 1 {
		t.Fatalf("library run: err %v, %d dead letters, want the late event alone", err, sup.DeadLetters())
	}
	if w, ok, err := resilience.CheckpointOffset(ckpt); err != nil || !ok || w != int64(len(stream)-1) {
		t.Errorf("drain checkpoint watermark %d, %v, %v; want the last arrival position %d", w, ok, err, len(stream)-1)
	}

	srv, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddQuery(server.QuerySpec{ID: "q1", Query: q1Text}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest(stream); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	served, err := srv.Matches("q1", 0)
	if err != nil {
		t.Fatal(err)
	}

	if len(lib) == 0 || len(served) != len(lib) {
		t.Fatalf("library gave %d matches, server %d", len(lib), len(served))
	}
	for i, l := range served {
		if got := strings.TrimSuffix(string(l), "\n"); got != lib[i] {
			t.Errorf("match %d:\nserved:  %s\nlibrary: %s", i, got, lib[i])
		}
	}
}

// TestSuperviseCancelResume: a run checkpointing after every event and
// cancelled while a match waits for the caller never checkpoints past
// a match the caller has not taken, so a run resumed from its
// checkpoint file, fed from resilience.ResumeSeq on, emits exactly the
// rest: the matches before the cancellation and those after it are
// together those of an uninterrupted Step loop, seq included.
func TestSuperviseCancelResume(t *testing.T) {
	rel, q := smallD1(t)
	// The reference, with the step that emitted each match.
	var want []string
	var step []int
	r := q.Runner()
	for i := 0; i <= rel.Len(); i++ {
		var ms []ses.Match
		if i < rel.Len() {
			var err error
			if ms, err = r.Step(rel.Event(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			ms = r.Flush()
		}
		for _, m := range ms {
			want, step = append(want, m.String()), append(step, i)
		}
	}
	// Stop reading after a match that is the last of its step and is
	// followed by a step with none, so that the supervisor checkpoints
	// that step and then waits at the next match.
	k := 2
	for k < len(want) && step[k]-step[k-1] < 2 {
		k++
	}
	if k >= len(want) {
		t.Fatalf("no usable cut among %d matches", len(want))
	}

	run := func(ctx context.Context, cfg ses.SuperviseConfig) (<-chan ses.Match, *ses.StreamSupervisor) {
		from, err := resilience.ResumeSeq(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan ses.Event)
		go func() {
			defer close(in)
			for i := from; i < rel.Len(); i++ {
				select {
				case in <- *rel.Event(i):
				case <-ctx.Done():
					return
				}
			}
		}()
		out, sup, err := q.Supervise(ctx, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out, sup
	}

	ckpt := filepath.Join(t.TempDir(), "q1.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	out, sup := run(ctx, ses.SuperviseConfig{CheckpointPath: ckpt, CheckpointEvery: 1})
	var got []string
	for len(got) < k {
		got = append(got, (<-out).String())
	}
	// Wait for the checkpoint of the step before the next match's, then
	// give a supervisor that ran ahead of the caller time to checkpoint
	// past it, and cancel.
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	waitFor("no checkpoint reached the step before the next match", func() bool {
		w, ok, err := resilience.CheckpointOffset(ckpt)
		return err == nil && ok && w >= int64(step[k]-1)
	})
	time.Sleep(20 * time.Millisecond)
	cancel()
	waitFor("the cancelled supervisor did not stop", func() bool { return sup.Err() != nil })
	for m := range out {
		t.Errorf("match %s delivered after the supervisor stopped", m)
	}
	if !errors.Is(sup.Err(), context.Canceled) || sup.Emitted() != int64(k) {
		t.Fatalf("cancelled run: err %v, %d emitted, want context.Canceled and %d", sup.Err(), sup.Emitted(), k)
	}

	out, sup = run(context.Background(), ses.SuperviseConfig{CheckpointPath: ckpt, Resume: true})
	for m := range out {
		got = append(got, m.String())
	}
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("cancelled at match %d and resumed:\n%s\nwant the uninterrupted run's:\n%s", k, g, w)
	}
}
