package engine

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// Reorderer absorbs bounded out-of-order arrival in event streams — a
// stream imperfection in the sense of CEDR [Barga et al.], which the
// paper's model (a totally ordered relation) assumes away. It buffers
// incoming events and releases them in timestamp order once they are
// older than the newest event seen minus the slack: an event may
// arrive at most Slack time units later than any event with a greater
// timestamp. Events that violate the bound are reported to the Late
// callback (or silently dropped) rather than breaking the downstream
// runner's order requirement.
type Reorderer struct {
	// Slack is the maximal tolerated lateness.
	Slack event.Duration
	// Late, when non-nil, receives events that arrive beyond Slack.
	Late func(event.Event)
	// DedupWindow, when positive, drops events that repeat the exact
	// (time, payload) of an event seen no more than DedupWindow time
	// units before the newest event — the at-least-once delivery
	// imperfection of real transports, which would otherwise produce
	// duplicate matches downstream. Dropped duplicates are counted in
	// DuplicatesDropped and are not reported to Late.
	DedupWindow event.Duration
	// DuplicatesDropped counts events dropped by the DedupWindow check.
	DuplicatesDropped int64

	buf       eventHeap
	maxSeen   event.Time
	seen      bool
	recent    map[string]event.Time // dedup key -> event time, pruned by watermark
	lastPrune event.Time
	scratch   []event.Event // backs the slices returned by Push and Drain
}

// NewReorderer creates a reorderer with the given lateness bound.
func NewReorderer(slack event.Duration) *Reorderer {
	if slack < 0 {
		panic("engine: negative reorder slack")
	}
	return &Reorderer{Slack: slack}
}

// Push accepts the next arriving event and returns the events that
// have become releasable, in timestamp order (ties in arrival order).
// A nil return means the event was buffered (or rejected: too late, or
// carrying one of the reserved sentinel timestamps event.MinTime /
// event.MaxTime, which would corrupt the watermark arithmetic —
// rejected events go to the Late callback). The returned slice is
// reused: it is valid only until the next Push or Drain call.
func (r *Reorderer) Push(e event.Event) []event.Event {
	if event.SentinelTime(e.Time) || (r.seen && e.Time < satSub(r.maxSeen, r.Slack)) {
		if r.Late != nil {
			r.Late(e)
		}
		return nil
	}
	if r.DedupWindow > 0 && r.duplicate(e) {
		r.DuplicatesDropped++
		return nil
	}
	r.buf.push(e)
	if !r.seen || e.Time > r.maxSeen {
		r.maxSeen, r.seen = e.Time, true
	}
	return r.release(satSub(r.maxSeen, r.Slack))
}

// satSub returns t - d saturating at the domain bounds: near
// event.MinTime the subtraction would otherwise wrap around to a huge
// positive watermark and misclassify every subsequent event as late.
func satSub(t event.Time, d event.Duration) event.Time {
	res := t - event.Time(d)
	if d >= 0 && res > t {
		return event.MinTime
	}
	if d < 0 && res < t {
		return event.MaxTime
	}
	return res
}

// duplicate records e's (time, payload) identity and reports whether
// it was already seen within the dedup window. Seq is deliberately
// excluded from the identity: transports reassign it on redelivery.
func (r *Reorderer) duplicate(e event.Event) bool {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", e.Time)
	for _, v := range e.Attrs {
		b.WriteByte(0)
		b.WriteString(v.Encode())
	}
	key := b.String()
	if r.recent == nil {
		r.recent = make(map[string]event.Time)
		r.lastPrune = e.Time
	} else if _, ok := r.recent[key]; ok {
		return true
	}
	r.recent[key] = e.Time
	// Forget identities that can no longer receive an in-window
	// duplicate. Pruning once per window advance keeps the map bounded
	// by roughly two windows' worth of distinct events at amortized
	// constant cost.
	if floor := satSub(e.Time, r.DedupWindow); floor > r.lastPrune+event.Time(r.DedupWindow) {
		for k, t := range r.recent {
			if t < floor {
				delete(r.recent, k)
			}
		}
		r.lastPrune = floor
	}
	return false
}

// ReordererState is a serializable snapshot of a Reorderer's ordering
// state: the buffered events (in internal heap order) and the
// watermark. The dedup identity map is deliberately excluded — it is a
// transport-facing filter whose loss across a restart costs at most
// one window of re-admitted duplicates, not correctness of ordering.
type ReordererState struct {
	// Buffered holds the not-yet-released events, including their Seq
	// arrival counters (the heap tie-break).
	Buffered []event.Event
	// MaxSeen is the newest timestamp observed; meaningful only when
	// Seen is true.
	MaxSeen event.Time
	// Seen reports whether any event has been accepted.
	Seen bool
}

// Snapshot captures the reorderer's ordering state. The returned
// buffer is a copy; the reorderer may keep running.
func (r *Reorderer) Snapshot() ReordererState {
	buf := make([]event.Event, len(r.buf))
	copy(buf, r.buf)
	return ReordererState{Buffered: buf, MaxSeen: r.maxSeen, Seen: r.seen}
}

// RestoreState replaces the reorderer's ordering state with a snapshot
// previously taken by Snapshot, re-establishing the heap invariant.
// Slack, Late and DedupWindow are left as configured.
func (r *Reorderer) RestoreState(st ReordererState) {
	r.buf = make(eventHeap, len(st.Buffered))
	copy(r.buf, st.Buffered)
	r.buf.init()
	r.maxSeen, r.seen = st.MaxSeen, st.Seen
}

// Drain releases all buffered events in timestamp order. Like Push,
// the returned slice is valid only until the next Push or Drain call.
func (r *Reorderer) Drain() []event.Event {
	if len(r.buf) == 0 {
		return nil
	}
	return r.release(r.maxSeen + 1)
}

// Pending returns the number of buffered events.
func (r *Reorderer) Pending() int { return len(r.buf) }

// release pops every buffered event with Time < watermark into the
// reused scratch slice.
func (r *Reorderer) release(watermark event.Time) []event.Event {
	out := r.scratch[:0]
	for len(r.buf) > 0 && r.buf[0].Time < watermark {
		out = append(out, r.buf.pop())
	}
	r.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// eventHeap is a min-heap on (Time, arrival order). The arrival order
// tie-break keeps the reorderer deterministic and stable. The sift
// operations are hand-rolled rather than going through container/heap
// so events are not boxed into interfaces on every push and pop — the
// reorderer sits on the per-event ingest path.
type eventHeap []event.Event

func (h eventHeap) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq // Seq doubles as arrival counter here
}

func (h *eventHeap) push(e event.Event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event.Event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event.Event{} // release Attrs for the collector
	*h = s[:n]
	(*h).siftDown(0)
	return top
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// init re-establishes the heap invariant over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
