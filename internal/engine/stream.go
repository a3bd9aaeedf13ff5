package engine

import (
	"context"
	"fmt"

	"repro/internal/event"
)

// Stream evaluates the automaton over a channel of events and sends
// completed matches on the returned channel. Events must arrive in
// non-decreasing time order (the discrete ordered time domain of
// Section 3.1). The output channel is closed after the input channel
// closes and the end-of-input flush ran, or when ctx is cancelled.
//
// A Runner must not be shared: Stream takes ownership of r until the
// output channel is closed. Errors (e.g. the instance cap or an
// out-of-order event) terminate the stream; they are reported through
// r.Err, which is safe to call at any time.
//
// Stream owns a copy of every received event and assigns consecutive
// sequence numbers to the copies (starting after any events already
// consumed via Step), so callers may leave Event.Seq zero.
func (r *Runner) Stream(ctx context.Context, in <-chan event.Event) <-chan Match {
	return stream(ctx, in, nil, []*Runner{r})
}

// stream is the one channel driver behind Runner.Stream,
// Runner.StreamReordered and Union.Stream: it receives events, checks
// their order (or, with a Reorderer, restores it), stamps sequence
// numbers, steps every runner, emits the completed matches under ctx,
// flushes at end of input and records the terminal error. Sequence
// numbers and the error live on runners[0], which is where Runner.Err
// and Union.Err read them. A failing step emits nothing for its event.
func stream(ctx context.Context, in <-chan event.Event, ro *Reorderer, runners []*Runner) <-chan Match {
	out := make(chan Match)
	head := runners[0]
	go func() {
		defer close(out)
		emit := func(ms []Match) bool {
			for _, m := range ms {
				select {
				case out <- m:
				case <-ctx.Done():
					head.setErr(ctx.Err())
					return false
				}
			}
			return true
		}
		// batch gathers one event's matches across the runners: each
		// runner's Step result is only valid until its next Step.
		var batch []Match
		feed := func(evs ...event.Event) bool {
			for i := range evs {
				ev := evs[i] // heap copy owned by the runners' buffers
				ev.Seq = int(head.metrics.EventsProcessed)
				batch = batch[:0]
				for _, r := range runners {
					ms, err := r.Step(&ev)
					if err != nil {
						head.setErr(err)
						return false
					}
					batch = append(batch, ms...)
				}
				if !emit(batch) {
					return false
				}
			}
			return true
		}
		var last event.Time
		received := 0
		for {
			select {
			case <-ctx.Done():
				head.setErr(ctx.Err())
				return
			case e, ok := <-in:
				switch {
				case !ok:
					if ro != nil && !feed(ro.Drain()...) {
						return
					}
					for _, r := range runners {
						if !emit(r.Flush()) {
							return
						}
					}
					return
				case ro != nil:
					e.Seq = received // arrival order for stable tie-breaks
					ok = feed(ro.Push(e)...)
				case received > 0 && e.Time < last:
					head.setErr(fmt.Errorf("engine: out-of-order event at time %d after %d", e.Time, last))
					return
				default:
					last = e.Time
					ok = feed(e)
				}
				if !ok {
					return
				}
				received++
			}
		}
	}()
	return out
}

// Err reports the error that terminated a Stream, if any. It is safe
// to call at any time and from any goroutine; a stream's definitive
// outcome is available once its output channel has closed.
func (r *Runner) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}
