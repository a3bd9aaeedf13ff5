package engine

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/event"
)

// WithPartitionKey makes the Runner keyed: its state is partitioned by
// the named attribute, one sub-runner per key value, so every automaton
// instance is confined to the events of one key — the "for each
// patient" reading of the paper's Q1, on a live stream. Metrics is
// Metrics.Merge over the keys. Query.MatchPartitioned is one pass of a
// keyed runner over a relation, its matches sorted by start time.
//
// A keyed runner checks time order once over the whole stream and emits
// in step order: the matches an event completes on its key come out
// with that event, so same-timestamp emissions of different keys follow
// arrival order. Flush ends the keys in first-occurrence order. A key's
// expired match surfaces only at that key's next event or at Flush.
// WithMaxInstances and its overload policy apply per key; an attached
// Aggregator is shared by all keys. Step reports an error when the
// attribute is not in the schema.
func WithPartitionKey(attr string) Option { return func(c *config) { c.partitionKey = attr } }

// keyed is the per-key state of a WithPartitionKey runner.
type keyed struct {
	attr  int   // schema index of the key attribute
	err   error // the key attribute is not in the schema
	index map[event.Value]int
	keys  []event.Value // first-occurrence order; subs is parallel
	subs  []*Runner
	spare []*Runner // sub-runners of forgotten keys, reset, for reuse
}

func newKeyed(a *automaton.Automaton, attr string) *keyed {
	k := &keyed{index: make(map[event.Value]int)}
	var ok bool
	if k.attr, ok = a.Schema.Index(attr); !ok {
		k.err = fmt.Errorf("engine: no partition key attribute %q in schema (%s)", attr, a.Schema)
	}
	return k
}

// sub returns key's sub-runner; at the key's first occurrence it reuses
// a forgotten key's or builds one without New, which would reset the
// shared Aggregator. Sub-runners share the parent's counters.
func (k *keyed) sub(r *Runner, key event.Value) *Runner {
	if i, ok := k.index[key]; ok {
		return k.subs[i]
	}
	var s *Runner
	if n := len(k.spare); n > 0 {
		s, k.spare = k.spare[n-1], k.spare[:n-1]
	} else {
		s = &Runner{a: r.a, cfg: r.cfg, plan: r.plan, clock: noTime, mismatches: r.mismatches}
		s.cfg.partitionKey = ""
	}
	k.index[key] = len(k.subs)
	k.keys = append(k.keys, key)
	k.subs = append(k.subs, s)
	return s
}

// step consumes e, already checked for time order, on its key's
// sub-runner and carries the sub-runner's metric changes into r's.
func (k *keyed) step(r *Runner, e *event.Event, matches []Match) ([]Match, error) {
	if k.err != nil {
		return matches, k.err
	}
	s := k.sub(r, e.Attrs[k.attr])
	before := s.metrics
	matches, err := s.stepInto(e, matches)
	r.metrics.account(before, s.metrics)
	return matches, err
}

// flush ends every key's input in first-occurrence order.
func (k *keyed) flush(r *Runner, matches []Match) []Match {
	for _, s := range k.subs {
		before := s.metrics
		matches = s.flushInto(matches)
		r.metrics.account(before, s.metrics)
	}
	return matches
}

// reset forgets every key and keeps its sub-runner, reset, for reuse.
func (k *keyed) reset() {
	clear(k.index)
	for _, s := range k.subs {
		s.Reset()
	}
	k.spare = append(k.spare, k.subs...)
	clear(k.keys)
	clear(k.subs)
	k.keys, k.subs = k.keys[:0], k.subs[:0]
}
