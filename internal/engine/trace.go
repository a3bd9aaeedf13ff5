package engine

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/automaton"
)

// TraceRecord is the JSON form of one TraceStep, written as one object
// per line (JSONL). State and variable names are resolved against the
// automaton the writer was created for; fields that do not apply to a
// record's kind are omitted.
type TraceRecord struct {
	// Kind is "transition", "spawn", "expire", "shed" or "match".
	Kind string `json:"kind"`
	// Time and Seq locate the input event driving the step; omitted
	// for steps without one (end-of-input flush matches, DropOldest
	// evictions).
	Time *int64 `json:"time,omitempty"`
	Seq  *int   `json:"seq,omitempty"`
	// From/To are state labels, Var the variable label (transitions).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Var  string `json:"var,omitempty"`
	Loop bool   `json:"loop,omitempty"`
	// Buffer is the instance's match buffer, e.g. "{c/e0, d/e2}".
	Buffer string `json:"buffer,omitempty"`
	// Match is the emitted substitution (kind "match"), with the
	// match's First/Last times alongside.
	Match string `json:"match,omitempty"`
	First *int64 `json:"first,omitempty"`
	Last  *int64 `json:"last,omitempty"`
}

// TraceJSONWriter renders TraceSteps as JSON lines. Its hook is safe
// for concurrent use: runners on different goroutines may share it,
// and their records interleave at line granularity. Errors of the
// underlying writer are sticky and reported by Err.
type TraceJSONWriter struct {
	a *automaton.Automaton

	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewTraceJSON creates a JSONL trace writer resolving state and
// variable labels against a.
func NewTraceJSON(w io.Writer, a *automaton.Automaton) *TraceJSONWriter {
	return &TraceJSONWriter{a: a, enc: json.NewEncoder(w)}
}

// Err returns the first write error, if any.
func (t *TraceJSONWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Hook returns the function to install with WithTrace.
func (t *TraceJSONWriter) Hook() func(TraceStep) {
	return func(s TraceStep) {
		rec := TraceRecord{Kind: s.Kind.String()}
		if s.Event != nil {
			tm, seq := int64(s.Event.Time), s.Event.Seq
			rec.Time, rec.Seq = &tm, &seq
		}
		switch s.Kind {
		case TraceTransition:
			rec.From = t.a.StateLabel(s.FromState)
			rec.To = t.a.StateLabel(s.ToState)
			if s.Var >= 0 {
				rec.Var = t.a.Vars[s.Var].String()
			}
			rec.Loop = s.Loop
			rec.Buffer = s.Buffer
		case TraceExpire, TraceShed:
			rec.From = t.a.StateLabel(s.FromState)
			rec.Buffer = s.Buffer
		case TraceMatch:
			if s.Matched != nil {
				first, last := int64(s.Matched.First), int64(s.Matched.Last)
				rec.Match = s.Matched.String()
				rec.First, rec.Last = &first, &last
			}
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.err != nil {
			return
		}
		t.err = t.enc.Encode(rec)
	}
}
