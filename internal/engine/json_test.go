package engine

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/paperdata"
)

func TestMatchJSON(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		b, err := MatchJSON(m, paperdata.Schema())
		if err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			First    int64 `json:"first"`
			Last     int64 `json:"last"`
			Bindings []struct {
				Var    string `json:"var"`
				Group  bool   `json:"group"`
				Events []struct {
					Seq   int            `json:"seq"`
					Time  int64          `json:"time"`
					Attrs map[string]any `json:"attrs"`
				} `json:"events"`
			} `json:"bindings"`
		}
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatalf("invalid JSON %s: %v", b, err)
		}
		if decoded.First != int64(m.First) || decoded.Last != int64(m.Last) {
			t.Errorf("first/last mismatch in %s", b)
		}
		if len(decoded.Bindings) != len(m.Bindings) {
			t.Fatalf("bindings = %d, want %d", len(decoded.Bindings), len(m.Bindings))
		}
		for _, bd := range decoded.Bindings {
			for _, e := range bd.Events {
				if _, ok := bd.Events[0].Attrs["L"]; !ok {
					t.Errorf("missing attribute L in %v", e)
				}
				if _, ok := bd.Events[0].Attrs["ID"]; !ok {
					t.Errorf("missing attribute ID in %v", e)
				}
			}
		}
	}
}

// matchJSONReflect is the reference encoder: encoding/json over the
// mirror structs. MatchJSON is hand-rolled for the serving hot path
// and must stay byte-identical to it.
func matchJSONReflect(m Match, schema *event.Schema) ([]byte, error) {
	out := matchJSON{First: m.First, Last: m.Last}
	for _, b := range m.Bindings {
		bj := bindingJSON{Var: b.Var, Group: b.Group}
		for _, e := range b.Events {
			ej := eventJSON{Seq: e.Seq, Time: e.Time, Attrs: make(map[string]any, len(e.Attrs))}
			for i, v := range e.Attrs {
				ej.Attrs[schema.Field(i).Name] = valueJSON(v)
			}
			bj.Events = append(bj.Events, ej)
		}
		out.Bindings = append(out.Bindings, bj)
	}
	return json.Marshal(out)
}

// encodeBoth encodes m with MatchJSON and with AppendMatchJSON after a
// prefix, and fails unless the two agree.
func encodeBoth(t *testing.T, m Match, schema *event.Schema) []byte {
	t.Helper()
	got, err := MatchJSON(m, schema)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "prev\n"
	appended, err := AppendMatchJSON([]byte(prefix), m, schema)
	if err != nil {
		t.Fatal(err)
	}
	if string(appended) != prefix+string(got) {
		t.Fatalf("AppendMatchJSON drifts from MatchJSON:\nappend: %s\nmatch:  %s%s", appended, prefix, got)
	}
	return got
}

// TestMatchJSONMatchesReflect pins the hand-rolled encoder, through
// both entry points, to encoding/json byte for byte, including string
// escaping, float formats and attribute key ordering.
func TestMatchJSONMatchesReflect(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	matches, _, err := Run(a, paperdata.Relation())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches to encode")
	}
	for _, m := range matches {
		got := encodeBoth(t, m, paperdata.Schema())
		want, err := matchJSONReflect(m, paperdata.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("encoder drift:\ngot:  %s\nwant: %s", got, want)
		}
	}

	// Synthetic matches cover what the chemotherapy data does not:
	// characters json escapes (quotes, HTML, control bytes, U+2028/29,
	// invalid UTF-8), float formats across the 'f'/'e' switchover, and
	// empty binding lists.
	schema := event.MustSchema(
		event.Field{Name: "S", Type: event.TypeString},
		event.Field{Name: "F", Type: event.TypeFloat},
		event.Field{Name: "A", Type: event.TypeInt},
	)
	strs := []string{
		"plain", `quo"te`, `back\slash`, "<script>&", "new\nline\ttab\rret",
		"ctrl\x01\x1f", "bad\xffutf8", "sep\u2028and\u2029", "π≈3.14159", "",
	}
	floats := []float64{
		0, 1672.5, -0.25, 1e-7, -1e-7, 9.9e-7, 1e-6, 1e20, 1e21, -3.5e22,
		5e-324, 1.7976931348623157e308, 123456789.123456789,
	}
	for i, s := range strs {
		f := floats[i%len(floats)]
		m := Match{
			First: event.Time(i),
			Last:  event.Time(i + 100),
			Bindings: []Binding{
				{Var: s, Group: i%2 == 0, Events: []*event.Event{{
					Seq: i, Time: event.Time(i),
					Attrs: []event.Value{event.String(s), event.Float(f), event.Int(int64(i - 5))},
				}}},
				{Var: "empty"},
			},
		}
		got := encodeBoth(t, m, schema)
		want, err := matchJSONReflect(m, schema)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("encoder drift on %q/%v:\ngot:  %s\nwant: %s", s, f, got, want)
		}
	}
}

// TestAppendMatchJSONCutsFailedMatch: a match holding a float JSON
// cannot represent is an error from both entry points, and
// AppendMatchJSON hands the buffer back as it was, so the matches
// encoded before it stay.
func TestAppendMatchJSONCutsFailedMatch(t *testing.T) {
	schema := event.MustSchema(event.Field{Name: "V", Type: event.TypeFloat})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := Match{First: 1, Last: 2, Bindings: []Binding{{Var: "v", Events: []*event.Event{
			{Seq: 0, Time: 1, Attrs: []event.Value{event.Float(1)}},
			{Seq: 1, Time: 2, Attrs: []event.Value{event.Float(f)}},
		}}}}
		if b, err := MatchJSON(m, schema); err == nil || b != nil {
			t.Errorf("MatchJSON with %v = %q, %v; want nil and an error", f, b, err)
		}
		b, err := AppendMatchJSON([]byte("kept"), m, schema)
		if err == nil || string(b) != "kept" {
			t.Errorf("AppendMatchJSON with %v = %q, %v; want the prefix back and an error", f, b, err)
		}
	}
}

func TestValueJSONKinds(t *testing.T) {
	if valueJSON(paperdata.Relation().Event(0).Attrs[1]) != "C" {
		t.Errorf("string value")
	}
	if valueJSON(paperdata.Relation().Event(0).Attrs[0]) != int64(1) {
		t.Errorf("int value")
	}
	if valueJSON(paperdata.Relation().Event(0).Attrs[2]) != 1672.5 {
		t.Errorf("float value")
	}
}
