package event

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Time is an instant in the discrete, ordered time domain T. The unit
// is application-defined ticks; the canonical unit used throughout the
// repository is one second. Timestamps need not be positive, but the
// two extreme int64 values are reserved as sentinels (see MinTime and
// MaxTime) and must not appear as event timestamps.
type Time int64

// MinTime and MaxTime are the extreme values of the time domain,
// reserved as internal sentinels: MaxTime marks end of input (a
// supervised stream's clock after its final flush) and MinTime marks
// "no time seen yet". Streaming pipelines refuse events carrying either
// timestamp — an event at MaxTime would alias the end-of-input clock,
// and both values break window arithmetic by overflowing Time ±
// Duration.
const (
	MinTime = Time(math.MinInt64)
	MaxTime = Time(math.MaxInt64)
)

// SentinelTime reports whether t is one of the reserved sentinel
// timestamps that cannot appear on a stream event.
func SentinelTime(t Time) bool { return t == MinTime || t == MaxTime }

// Duration is a span of time in the same ticks as Time.
type Duration int64

// Common duration units in the canonical one-tick-per-second domain.
const (
	Second Duration = 1
	Minute          = 60 * Second
	Hour            = 60 * Minute
	Day             = 24 * Hour
	Week            = 7 * Day
)

// FromGoTime converts a time.Time to the canonical seconds domain.
func FromGoTime(t time.Time) Time { return Time(t.Unix()) }

// String renders the duration compactly (e.g. "264h", "90s") assuming
// the canonical seconds domain.
func (d Duration) String() string {
	switch {
	case d%Day == 0 && d != 0:
		return fmt.Sprintf("%dd", d/Day)
	case d%Hour == 0 && d != 0:
		return fmt.Sprintf("%dh", d/Hour)
	case d%Minute == 0 && d != 0:
		return fmt.Sprintf("%dm", d/Minute)
	default:
		return fmt.Sprintf("%ds", d)
	}
}

// Event is a tuple (A1..Al, T). Seq is the event's stable position in
// its relation; it uniquely identifies the event and preserves relation
// order among events with equal timestamps.
type Event struct {
	Seq   int
	Time  Time
	Attrs []Value
}

// Attr returns the i-th attribute value.
func (e *Event) Attr(i int) Value { return e.Attrs[i] }

// String renders the event as "e<Seq>(v1, v2, ... @t)".
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e%d(", e.Seq)
	for i, v := range e.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, " @%d)", e.Time)
	return b.String()
}

// Relation is a set of events sharing a schema, ordered by occurrence
// time (Section 3.1: the timestamp attribute defines a total order;
// ties, which arise in the duplicated datasets D2-D5 of the evaluation,
// are broken by insertion order).
type Relation struct {
	schema *Schema
	events []Event
	sorted bool
}

// NewRelation creates an empty relation over the given schema.
func NewRelation(schema *Schema) *Relation {
	if schema == nil {
		panic("event: NewRelation with nil schema")
	}
	return &Relation{schema: schema, sorted: true}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of events.
func (r *Relation) Len() int { return len(r.events) }

// Event returns a pointer to the i-th event in relation order. The
// pointer stays valid until the relation is appended to again.
func (r *Relation) Event(i int) *Event { return &r.events[i] }

// Events returns the underlying event slice in relation order. The
// caller must not mutate it.
func (r *Relation) Events() []Event { return r.events }

// Append adds an event with the given time and attribute values,
// validating them against the schema. Sequence numbers are assigned in
// insertion order.
func (r *Relation) Append(t Time, vals ...Value) error {
	if err := r.schema.Check(vals); err != nil {
		return err
	}
	if n := len(r.events); n > 0 && r.events[n-1].Time > t {
		r.sorted = false
	}
	attrs := make([]Value, len(vals))
	copy(attrs, vals)
	r.events = append(r.events, Event{Seq: len(r.events), Time: t, Attrs: attrs})
	return nil
}

// MustAppend is Append that panics on error, for tests and examples.
func (r *Relation) MustAppend(t Time, vals ...Value) {
	if err := r.Append(t, vals...); err != nil {
		panic(err)
	}
}

// Sorted reports whether events are currently in non-decreasing time
// order.
func (r *Relation) Sorted() bool { return r.sorted }

// SortByTime stably sorts events into non-decreasing time order and
// renumbers their sequence numbers. Events with equal timestamps keep
// their relative insertion order.
func (r *Relation) SortByTime() {
	if r.sorted {
		return
	}
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].Time < r.events[j].Time })
	for i := range r.events {
		r.events[i].Seq = i
	}
	r.sorted = true
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{schema: r.schema, sorted: r.sorted}
	out.events = make([]Event, len(r.events))
	for i := range r.events {
		out.events[i] = r.events[i]
		out.events[i].Attrs = append([]Value(nil), r.events[i].Attrs...)
	}
	return out
}

// Duplicate returns a new relation in which every event of r appears k
// times (with identical attributes and timestamp), renumbered in
// relation order. This reproduces how the evaluation derives datasets
// D2..D5 from D1 (Section 5.1): Duplicate(r, 2) contains each event
// twice, scaling the window size W by 2, and so on. k must be >= 1.
func (r *Relation) Duplicate(k int) *Relation {
	if k < 1 {
		panic("event: Duplicate with k < 1")
	}
	out := &Relation{schema: r.schema, sorted: r.sorted}
	out.events = make([]Event, 0, len(r.events)*k)
	for i := range r.events {
		for j := 0; j < k; j++ {
			e := r.events[i]
			e.Seq = len(out.events)
			e.Attrs = append([]Value(nil), r.events[i].Attrs...)
			out.events = append(out.events, e)
		}
	}
	return out
}

// Filter returns a new relation containing the events for which keep
// returns true, preserving relation order. Sequence numbers are kept
// from the source relation so that matches remain traceable to the
// original events.
func (r *Relation) Filter(keep func(*Event) bool) *Relation {
	out := NewRelation(r.schema)
	out.sorted = r.sorted
	for i := range r.events {
		if keep(&r.events[i]) {
			e := r.events[i]
			e.Attrs = append([]Value(nil), r.events[i].Attrs...)
			out.events = append(out.events, e)
		}
	}
	return out
}

// Partition splits the relation by the value of the named attribute,
// preserving relation order within each partition. Sequence numbers
// are kept from the source relation so that matches found in a
// partition remain traceable to (and unambiguous among) the original
// events. It returns an error when the attribute does not exist.
func (r *Relation) Partition(attr string) (map[Value]*Relation, error) {
	idx, ok := r.schema.Index(attr)
	if !ok {
		return nil, fmt.Errorf("event: no attribute %q in schema (%s)", attr, r.schema)
	}
	out := make(map[Value]*Relation)
	for i := range r.events {
		key := r.events[i].Attrs[idx]
		p := out[key]
		if p == nil {
			p = NewRelation(r.schema)
			out[key] = p
		}
		e := r.events[i]
		e.Attrs = append([]Value(nil), r.events[i].Attrs...)
		p.events = append(p.events, e)
		p.sorted = p.sorted && r.sorted
	}
	return out, nil
}

// Merge combines time-sorted relations over a common schema into one
// sorted relation (k-way merge, stable across inputs in argument
// order: on ties, events from earlier arguments come first). Events
// are renumbered in merged order.
func Merge(rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("event: Merge of zero relations")
	}
	schema := rels[0].schema
	for i, r := range rels {
		if !r.schema.Equal(schema) {
			return nil, fmt.Errorf("event: Merge input %d has schema (%s), want (%s)", i+1, r.schema, schema)
		}
		if !r.sorted {
			return nil, fmt.Errorf("event: Merge input %d is not sorted by time", i+1)
		}
	}
	out := NewRelation(schema)
	pos := make([]int, len(rels))
	total := 0
	for _, r := range rels {
		total += r.Len()
	}
	out.events = make([]Event, 0, total)
	for len(out.events) < total {
		best := -1
		for i, r := range rels {
			if pos[i] >= r.Len() {
				continue
			}
			if best < 0 || r.events[pos[i]].Time < rels[best].events[pos[best]].Time {
				best = i
			}
		}
		e := rels[best].events[pos[best]]
		pos[best]++
		e.Seq = len(out.events)
		e.Attrs = append([]Value(nil), e.Attrs...)
		out.events = append(out.events, e)
	}
	return out, nil
}

// WindowSize computes W, the maximal number of events in a time window
// of width tau sliding over the relation event by event (Definition 5).
// Two events e, e' belong to the same window when |e.T - e'.T| <= tau.
// The relation must be sorted by time.
func (r *Relation) WindowSize(tau Duration) int {
	if !r.sorted {
		panic("event: WindowSize on unsorted relation")
	}
	maxW, lo := 0, 0
	for hi := range r.events {
		for Duration(r.events[hi].Time-r.events[lo].Time) > tau {
			lo++
		}
		if w := hi - lo + 1; w > maxW {
			maxW = w
		}
	}
	return maxW
}

// TimeSpan returns the times of the chronologically first and last
// event. ok is false for an empty relation. The relation must be
// sorted by time.
func (r *Relation) TimeSpan() (first, last Time, ok bool) {
	if len(r.events) == 0 {
		return 0, 0, false
	}
	if !r.sorted {
		panic("event: TimeSpan on unsorted relation")
	}
	return r.events[0].Time, r.events[len(r.events)-1].Time, true
}
