package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. The spans of one ingest
// batch share its batch id; parent is the index of the span that
// caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root
	Batch  int    `json:"batch"`  // -1 when the span belongs to no batch
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index, for its children to name
// as their parent; finish closes it.
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// add records a span whose ends are already known.
func (t *tracer) add(name string, start, end time.Time, parent, batch int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), parent, batch})
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, parent, batch int, fn func()) time.Duration {
	id := t.begin(name, parent, batch)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.finish(id)
	return d
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
