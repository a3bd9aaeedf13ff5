package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/resilience"
)

// The library's one channel API is the supervised pipeline
// (resilience.SuperviseEvents behind ses.Query.Supervise); the tests
// below hold it to the runner's Step/Flush semantics.

// supervise is resilience.SuperviseEvents for a run whose checkpoint,
// if any, is readable.
func supervise(t *testing.T, ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Event, cfg resilience.Config) (<-chan engine.Match, *resilience.Supervisor) {
	t.Helper()
	out, sup, err := resilience.SuperviseEvents(ctx, a, opts, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, sup
}

// sendAll sends evs on a fresh channel and closes it.
func sendAll(evs []event.Event) <-chan event.Event {
	in := make(chan event.Event)
	go func() {
		defer close(in)
		for _, e := range evs {
			in <- e
		}
	}()
	return in
}

// TestStreamMatchesRun: supervised channel evaluation produces exactly
// the matches of batch evaluation on the running example.
func TestStreamMatchesRun(t *testing.T) {
	a := engine.CompileForTest(t, paperdata.QueryQ1(), paperdata.Schema())
	relation := paperdata.Relation()

	batch, _, err := engine.Run(a, relation)
	if err != nil {
		t.Fatal(err)
	}

	out, sup := supervise(t, context.Background(), a, nil, sendAll(relation.Events()), resilience.Config{})
	var streamed []engine.Match
	for m := range out {
		streamed = append(streamed, m)
	}
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	if !engine.SameMatchSetForTest(batch, streamed) {
		t.Errorf("stream %v != batch %v", engine.MatchStringsForTest(streamed), engine.MatchStringsForTest(batch))
	}
}

// streamWrapper is one supervision configuration over the two-step
// pattern x.L='A' then y.L='B', named after the channel driver whose
// cases it runs so that the subtest names stay stable.
type streamWrapper struct {
	name string
	// reorders: the configuration absorbs disorder within a slack of 5
	// instead of dead-lettering every event earlier than the last one.
	reorders bool
	cfg      resilience.Config
}

var streamWrappers = []streamWrapper{
	{name: "Runner.Stream"},
	{name: "Runner.StreamReordered", reorders: true, cfg: resilience.Config{Slack: 5}},
	{name: "Union.Stream", cfg: resilience.Config{MaxRestarts: -1}},
}

// start supervises the two-step pattern over in. prestep events are
// stepped by hand first and the run resumes from the runner's snapshot,
// the way a runner stepped outside a channel joins one; its events are
// numbered on from the snapshot's.
func (w streamWrapper) start(t *testing.T, ctx context.Context, within event.Duration, in <-chan event.Event, prestep []event.Event) (<-chan engine.Match, *resilience.Supervisor) {
	a := engine.CompileForTest(t, engine.SeqPatternForTest(t, within), engine.SimpleSchemaForTest())
	cfg := w.cfg
	if len(prestep) > 0 {
		r := engine.New(a)
		for i := range prestep {
			if _, err := r.Step(&prestep[i]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := r.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheckpointPath, cfg.Resume = filepath.Join(t.TempDir(), "ckpt"), true
		if err := os.WriteFile(cfg.CheckpointPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return supervise(t, ctx, a, nil, in, cfg)
}

// TestStreamLoop drives the supervised stream loop through each
// configuration: flush at end of input, emission before end of input,
// sequence numbering after a resume from hand-stepped events, disorder
// (dead-lettered as late, or absorbed within the slack), cancellation
// while blocked emitting a step's or the flush's match, and Err after
// the output closed.
func TestStreamLoop(t *testing.T) {
	mkEvent := engine.EventForTest
	cases := []struct {
		name    string
		within  event.Duration
		prestep []event.Event
		input   []event.Event
		// closed: the input is closed up front. Otherwise the test reads
		// wantOpen matches — emitted before end of input — and closes it.
		closed   bool
		wantOpen int
		// cancel: nobody reads the output; ctx is cancelled once the loop
		// blocks emitting, which is when residual[reorders] events are
		// still queued.
		cancel   bool
		residual map[bool]int
		// want / wantErr / wantLate are indexed by streamWrapper.reorders.
		want     map[bool][]string
		wantErr  map[bool]string
		wantLate map[bool]int64
	}{
		{
			name: "flush at EOF", within: 100, closed: true,
			input: []event.Event{mkEvent(0, "A"), mkEvent(1, "B")},
			want:  map[bool][]string{false: {"{x/e0, y/e1}"}, true: {"{x/e0, y/e1}"}},
		},
		{
			name: "seq continues after Step", within: 100, closed: true,
			prestep: []event.Event{mkEvent(-1, "C")},
			input:   []event.Event{mkEvent(0, "A"), mkEvent(1, "B")},
			want:    map[bool][]string{false: {"{x/e1, y/e2}"}, true: {"{x/e1, y/e2}"}},
		},
		{
			// The accepted instance expires when an event far in the
			// future is stepped (one more arrival later under reordering,
			// which holds the newest event back); the match must surface
			// while the input is still open.
			name: "emits before EOF", within: 10, wantOpen: 1,
			input: []event.Event{mkEvent(0, "A"), mkEvent(1, "B"), mkEvent(1000, "A"), mkEvent(2000, "A")},
			want:  map[bool][]string{false: {"{x/e0, y/e1}"}, true: {"{x/e0, y/e1}"}},
		},
		{
			// In order, C@6 and B@1 are late behind A@10; within a slack
			// of 5 only B@1 is. Events are numbered by arrival, refused
			// ones included.
			name: "disorder", within: 100, closed: true,
			input:    []event.Event{mkEvent(10, "A"), mkEvent(6, "C"), mkEvent(1, "B"), mkEvent(12, "B")},
			want:     map[bool][]string{false: {"{x/e0, y/e3}"}, true: {"{x/e0, y/e3}"}},
			wantLate: map[bool]int64{false: 2, true: 1},
		},
		{
			// In order the match surfaces at A@1000, leaving A@2000 queued.
			name: "cancel mid-emit", within: 10, cancel: true, residual: map[bool]int{false: 1},
			input:   []event.Event{mkEvent(0, "A"), mkEvent(1, "B"), mkEvent(1000, "A"), mkEvent(2000, "A")},
			wantErr: map[bool]string{false: context.Canceled.Error(), true: context.Canceled.Error()},
		},
		{
			name: "cancel mid-flush", within: 100, cancel: true, closed: true,
			input:   []event.Event{mkEvent(0, "A"), mkEvent(1, "B")},
			wantErr: map[bool]string{false: context.Canceled.Error(), true: context.Canceled.Error()},
		},
	}
	for _, tc := range cases {
		for _, w := range streamWrappers {
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				in := make(chan event.Event, len(tc.input)) // sized to the sends
				for _, e := range tc.input {
					in <- e
				}
				if tc.closed {
					close(in)
				}
				out, sup := w.start(t, ctx, tc.within, in, tc.prestep)

				var got []string
				switch {
				case tc.cancel:
					for len(in) > tc.residual[w.reorders] {
						time.Sleep(time.Millisecond)
					}
					cancel()
				case !tc.closed:
					for i := 0; i < tc.wantOpen; i++ {
						select {
						case m := <-out:
							got = append(got, m.String())
						case <-time.After(2 * time.Second):
							t.Fatal("no match emitted while the input was open")
						}
					}
					close(in)
				}
				deadline := time.After(2 * time.Second)
				for open := true; open; {
					select {
					case m, ok := <-out:
						if open = ok; ok {
							got = append(got, m.String())
						}
					case <-deadline:
						t.Fatal("output channel did not close")
					}
				}
				if tc.cancel {
					got = nil // a match may or may not slip out before the cancel lands
				}
				if want := tc.want[w.reorders]; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("matches = %v, want %v", got, want)
				}
				err, wantErr := sup.Err(), tc.wantErr[w.reorders]
				if (err == nil) != (wantErr == "") || (err != nil && !strings.Contains(err.Error(), wantErr)) {
					t.Errorf("Err() = %v, want %q", err, wantErr)
				}
				if late := sup.DeadLetters(); late != tc.wantLate[w.reorders] {
					t.Errorf("dead letters = %d, want %d", late, tc.wantLate[w.reorders])
				}
			})
		}
	}
}

// TestStreamErrConcurrentPoll: Supervisor.Err must be safe to call at
// any time, including while the pipeline goroutine is live and may be
// writing the error (run with -race).
func TestStreamErrConcurrentPoll(t *testing.T) {
	a := engine.CompileForTest(t, engine.SeqPatternForTest(t, 100), engine.SimpleSchemaForTest())
	in := make(chan event.Event)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, sup := supervise(t, ctx, a, nil, in, resilience.Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range out {
		}
	}()
	for i := 0; i < 100; i++ {
		_ = sup.Err() // concurrent with the pipeline goroutine
		if i == 50 {
			in <- engine.EventForTest(5, "A")
			cancel() // sets Err
		}
	}
	<-done
	if !errors.Is(sup.Err(), context.Canceled) {
		t.Errorf("Err() = %v after cancellation, want context.Canceled", sup.Err())
	}
}

// TestStreamReorderedMatchesBatch: shuffling the Figure 1 relation
// within a generous slack and supervising it with that Slack, each
// event keeping its sorted position as its Seq, yields the same matches as batch evaluation of the sorted relation, with no dead
// letter.
func TestStreamReorderedMatchesBatch(t *testing.T) {
	a := engine.CompileForTest(t, paperdata.QueryQ1(), paperdata.Schema())
	rel := paperdata.Relation()
	batch, _, err := engine.Run(a, rel)
	if err != nil {
		t.Fatal(err)
	}

	// Swap a few adjacent events to simulate disorder.
	events := append([]event.Event(nil), rel.Events()...)
	events[2], events[3] = events[3], events[2]
	events[6], events[7] = events[7], events[6]
	events[10], events[11] = events[11], events[10]

	// Each event keeps its position in the sorted relation as its Seq,
	// the way a source stamps its offsets, so the matches compare with
	// batch ones.
	in := make(chan event.Block)
	go func() {
		defer close(in)
		for i := range events {
			in <- event.Block{Events: events[i : i+1]}
		}
	}()
	out, sup := resilience.Supervise(context.Background(), a, nil, in,
		resilience.Config{Slack: 7 * 24 * event.Hour})
	var streamed []engine.Match
	for ms := range out {
		streamed = append(streamed, ms...)
	}
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	if late := sup.DeadLetters(); late != 0 {
		t.Errorf("dead letters = %d", late)
	}
	if !engine.SameMatchSetForTest(batch, streamed) {
		t.Errorf("reordered stream %v != batch %v", engine.MatchStringsForTest(streamed), engine.MatchStringsForTest(batch))
	}
}

// TestShardedOutOfOrderInput: time order is checked over the whole
// stream, not per key. Step refuses an earlier event of another key
// and leaves the runner unchanged; keyed supervision dead-letters it
// as late and ends the stream cleanly.
func TestShardedOutOfOrderInput(t *testing.T) {
	a, _ := engine.CompileShardedForTest(t)
	r := engine.New(a, engine.WithPartitionKey("ID"))
	ev := func(tm event.Time, id int64, l string) event.Event {
		return event.Event{Time: tm, Attrs: []event.Value{event.Int(id), event.String(l)}}
	}
	first := ev(10, 1, "A")
	if _, err := r.Step(&first); err != nil {
		t.Fatal(err)
	}
	before, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	earlier := ev(5, 2, "A")
	if _, err := r.Step(&earlier); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("Step err = %v, want out-of-order", err)
	}
	if after, _ := r.SnapshotBytes(); string(after) != string(before) {
		t.Error("the refused event changed the runner")
	}

	var reasons []error
	out, sup := supervise(t, context.Background(), a, []engine.Option{engine.WithPartitionKey("ID")},
		sendAll([]event.Event{ev(10, 1, "A"), ev(5, 2, "B")}),
		resilience.Config{DeadLetter: func(_ event.Event, reason error) { reasons = append(reasons, reason) }})
	for range out {
	}
	if err := sup.Err(); err != nil {
		t.Errorf("Err() = %v, want a clean end", err)
	}
	if len(reasons) != 1 || !errors.Is(reasons[0], resilience.ErrLate) {
		t.Errorf("dead letters = %v, want one ErrLate", reasons)
	}
}

// TestShardedCancellation: a cancelled context ends a keyed supervised
// stream; the output channel closes and Err reports the cause.
func TestShardedCancellation(t *testing.T) {
	a, rel := engine.CompileShardedForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan event.Event)
	go func() {
		// Feed until the stream stops reading; never close, so only
		// cancellation can end the run.
		for i := 0; ; i++ {
			e := *rel.Event(i % rel.Len())
			e.Time = event.Time(i)
			select {
			case in <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	out, sup := supervise(t, ctx, a, []engine.Option{engine.WithPartitionKey("ID")}, in, resilience.Config{})
	cancel()
	done := make(chan struct{})
	go func() {
		for range out {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("output channel did not close after cancellation")
	}
	if sup.Err() == nil {
		t.Error("Err() = nil after cancellation")
	}
}
