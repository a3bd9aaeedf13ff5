package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/event"
)

// parseEvent decodes one ingest line: {"time": T, "attrs": {name:
// value}}, optionally carrying a router-assigned global sequence as
// {"seq": N, ...} (Seq is -1 when the line has none). Every schema
// attribute must be present with a JSON value of its type; unknown
// attribute names are rejected.
//
// This is the reference decoder the batch path (engine.BlockDecoder)
// is pinned against: handleIngest no longer calls it per line, but the
// differential fuzz target and the ingest equivalence tests compare
// the block decoder's accept/reject behaviour and decoded events
// against this implementation. Do not change one without the other.
func (s *Server) parseEvent(line string) (event.Event, error) {
	var raw struct {
		Time  *int64                     `json:"time"`
		Seq   *int64                     `json:"seq"`
		Attrs map[string]json.RawMessage `json:"attrs"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return event.Event{}, err
	}
	if raw.Time == nil {
		return event.Event{}, fmt.Errorf("missing \"time\"")
	}
	schema := s.cfg.Schema
	for name := range raw.Attrs {
		if _, ok := schema.Index(name); !ok {
			return event.Event{}, fmt.Errorf("unknown attribute %q (schema: %s)", name, schema)
		}
	}
	attrs := make([]event.Value, schema.NumFields())
	for i := 0; i < schema.NumFields(); i++ {
		f := schema.Field(i)
		rawVal, ok := raw.Attrs[f.Name]
		if !ok {
			return event.Event{}, fmt.Errorf("missing attribute %q (schema: %s)", f.Name, schema)
		}
		v, err := parseJSONValue(f, rawVal)
		if err != nil {
			return event.Event{}, err
		}
		attrs[i] = v
	}
	e := event.Event{Seq: -1, Time: event.Time(*raw.Time), Attrs: attrs}
	if raw.Seq != nil {
		e.Seq = int(*raw.Seq)
	}
	return e, nil
}

// parseJSONValue decodes one attribute value of the field's type.
func parseJSONValue(f event.Field, raw json.RawMessage) (event.Value, error) {
	switch f.Type {
	case event.TypeString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return event.Value{}, fmt.Errorf("attribute %q: want a string: %v", f.Name, err)
		}
		return event.String(s), nil
	case event.TypeInt:
		var i int64
		if err := json.Unmarshal(raw, &i); err != nil {
			return event.Value{}, fmt.Errorf("attribute %q: want an integer: %v", f.Name, err)
		}
		return event.Int(i), nil
	default:
		var fl float64
		if err := json.Unmarshal(raw, &fl); err != nil {
			return event.Value{}, fmt.Errorf("attribute %q: want a number: %v", f.Name, err)
		}
		return event.Float(fl), nil
	}
}
