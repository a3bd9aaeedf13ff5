package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/paperdata"
)

// TestStreamMatchesRun: channel evaluation produces exactly the
// matches of batch evaluation on the running example.
func TestStreamMatchesRun(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	relation := paperdata.Relation()

	batch, _, err := Run(a, relation)
	if err != nil {
		t.Fatal(err)
	}

	r := New(a)
	in := make(chan event.Event)
	out := r.Stream(context.Background(), in)
	go func() {
		for i := 0; i < relation.Len(); i++ {
			in <- *relation.Event(i)
		}
		close(in)
	}()
	var streamed []Match
	for m := range out {
		streamed = append(streamed, m)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !sameMatchSet(batch, streamed) {
		t.Errorf("stream %v != batch %v", matchStrings(streamed), matchStrings(batch))
	}
}

// streamWrapper starts one of the three public faces of the shared
// stream loop over the two-step pattern x.L='A' then y.L='B'.
type streamWrapper struct {
	name string
	// reorders: the wrapper absorbs disorder within a slack of 5
	// instead of failing on it.
	reorders bool
	// start returns the match channel plus accessors for the terminal
	// error and the late-event count. prestep events are consumed via
	// Step before the stream starts.
	start func(t *testing.T, ctx context.Context, in <-chan event.Event, prestep []event.Event) (out <-chan Match, errf func() error, late func() int64)
}

func streamWrappers(within event.Duration) []streamWrapper {
	noLate := func() int64 { return 0 }
	stepAll := func(t *testing.T, step func(*event.Event) ([]Match, error), evs []event.Event) {
		for i := range evs {
			if _, err := step(&evs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []streamWrapper{
		{name: "Runner.Stream", start: func(t *testing.T, ctx context.Context, in <-chan event.Event, pre []event.Event) (<-chan Match, func() error, func() int64) {
			r := New(compile(t, seqPattern(t, within), simpleSchema()))
			stepAll(t, r.Step, pre)
			return r.Stream(ctx, in), r.Err, noLate
		}},
		{name: "Runner.StreamReordered", reorders: true, start: func(t *testing.T, ctx context.Context, in <-chan event.Event, pre []event.Event) (<-chan Match, func() error, func() int64) {
			r := New(compile(t, seqPattern(t, within), simpleSchema()))
			stepAll(t, r.Step, pre)
			out, late := r.StreamReordered(ctx, in, 5)
			return out, r.Err, func() int64 { return *late }
		}},
		{name: "Union.Stream", start: func(t *testing.T, ctx context.Context, in <-chan event.Event, pre []event.Event) (<-chan Match, func() error, func() int64) {
			u, err := NewUnion([]*automaton.Automaton{compile(t, seqPattern(t, within), simpleSchema())})
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, u.Step, pre)
			return u.Stream(ctx, in), u.Err, noLate
		}},
	}
}

// TestStreamLoop drives the one stream loop through each of its three
// wrappers: flush at end of input, emission before end of input,
// sequence numbering after direct Steps, disorder (an error for the
// in-order wrappers, absorbed or counted late by the reordering one),
// cancellation while blocked emitting a step's or the flush's match,
// and Err after the output closed.
func TestStreamLoop(t *testing.T) {
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
		wantLate int64
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
			name: "disorder", within: 100, closed: true,
			input:    []event.Event{mkEvent(10, "A"), mkEvent(6, "C"), mkEvent(1, "B"), mkEvent(12, "B")},
			want:     map[bool][]string{false: nil, true: {"{x/e1, y/e2}"}},
			wantErr:  map[bool]string{false: "out-of-order event at time 6 after 10"},
			wantLate: 1, // B@1 is more than the slack behind A@10
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
		for _, w := range streamWrappers(tc.within) {
			tc, w := tc, w
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
				out, errf, late := w.start(t, ctx, in, tc.prestep)

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
				err, wantErr := errf(), tc.wantErr[w.reorders]
				if (err == nil) != (wantErr == "") || (err != nil && !strings.Contains(err.Error(), wantErr)) {
					t.Errorf("Err() = %v, want %q", err, wantErr)
				}
				if w.reorders && late() != tc.wantLate {
					t.Errorf("late = %d, want %d", late(), tc.wantLate)
				}
			})
		}
	}
}

// TestStreamErrConcurrentPoll: Err must be safe to call at any time,
// including while the stream goroutine is live and may be writing the
// error (the seed had a data race here; run with -race).
func TestStreamErrConcurrentPoll(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	r := New(a)
	in := make(chan event.Event)
	out := r.Stream(context.Background(), in)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
			default:
			}
			if _, ok := <-out; !ok {
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_ = r.Err() // concurrent with the stream goroutine
		if i == 50 {
			in <- event.Event{Time: 5, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(0)}}
			in <- event.Event{Time: 1, Attrs: []event.Value{event.Int(1), event.String("B"), event.Float(0)}} // out of order: sets err
		}
	}
	<-done
	if r.Err() == nil {
		t.Errorf("out-of-order input should have set Err")
	}
}
