package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/server"
)

// disorderStream perturbs a time-ordered stream: local swaps create
// short reorderings and a few long-range moves pull events many
// positions later, the "straggler" shape that reaches back furthest
// behind the stream high-water.
func disorderStream(rng *rand.Rand, ordered []event.Event) []event.Event {
	out := make([]event.Event, len(ordered))
	copy(out, ordered)
	for i := 0; i+1 < len(out); i++ {
		if rng.Intn(4) == 0 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	for k := 0; k < len(out)/50+1; k++ {
		i := rng.Intn(len(out))
		j := i + 1 + rng.Intn(40)
		if j >= len(out) {
			j = len(out) - 1
		}
		e := out[i]
		copy(out[i:j], out[i+1:j+1])
		out[j] = e
	}
	return out
}

// TestRoutingOutOfOrderIdentity is the routing A/B property test over
// disordered streams: with every query of the pool registered and
// random batch shapes, a routed server and a full-fan-out server
// (BroadcastForTest) must produce byte-identical match logs. Lateness
// is judged once at dispatch against the stream high-water, so every
// query without slack steps the same ordered subsequence whichever
// way it is delivered, and skipping its key misses changes nothing.
func TestRoutingOutOfOrderIdentity(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	specs := routingQueryPool()
	for trial := 0; trial < 16; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(97 + trial)))
			events := disorderStream(rng, rel.Events())
			sizes := []int{1 + rng.Intn(7), 1 + rng.Intn(31), 1 + rng.Intn(200)}

			run := func(broadcast bool) map[string][]string {
				reg := obs.NewRegistry()
				s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg})
				if err != nil {
					t.Fatal(err)
				}
				if broadcast {
					s.BroadcastForTest()
				}
				for _, spec := range specs {
					if _, err := s.AddQuery(spec); err != nil {
						t.Fatalf("AddQuery(%s): %v", spec.ID, err)
					}
				}
				ingestInBatches(t, s, events, sizes)
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				if late, _ := reg.Value("ses_server_late_events_total"); late == 0 {
					t.Fatal("the disordered stream has no late event")
				}
				out := make(map[string][]string, len(specs))
				for _, spec := range specs {
					out[spec.ID] = infoLines(t, s, spec.ID, 0)
				}
				return out
			}

			routed, full := run(false), run(true)
			for _, spec := range specs {
				r, f := routed[spec.ID], full[spec.ID]
				if len(r) != len(f) {
					t.Fatalf("query %s: routed %d matches, full fan-out %d", spec.ID, len(r), len(f))
				}
				for i := range f {
					if r[i] != f[i] {
						t.Errorf("query %s match %d:\nrouted: %s\nfull:   %s", spec.ID, i, r[i], f[i])
					}
				}
			}
		})
	}
}

// cdSchema and cdEvent build the two-attribute streams of the
// hand-written disorder cases below.
var cdSchema = event.MustSchema(
	event.Field{Name: "ID", Type: event.TypeInt},
	event.Field{Name: "L", Type: event.TypeString},
)

func cdEvent(time int64, id int64, label string) event.Event {
	return event.Event{Time: event.Time(time), Attrs: []event.Value{event.Int(id), event.String(label)}}
}

const cdQuery = `
PATTERN PERMUTE(c) THEN (d)
WHERE c.L = 'C' AND d.L = 'D' AND c.ID = d.ID
WITHIN 100`

// TestRoutingReachBackIsLate: a straggler reaching back into an open
// window behind a later event of the same query is late on the stream,
// so neither a routed nor a full-fan-out server binds it, and the
// server counts it once.
func TestRoutingReachBackIsLate(t *testing.T) {
	stream := []event.Event{
		cdEvent(0, 1, "C"),   // start: instance c@0 opens, d unbound
		cdEvent(201, 1, "D"), // beyond 0+WITHIN: expires c@0 unaccepted
		cdEvent(90, 1, "D"),  // straggler reaching back into c@0's window
	}
	for _, broadcast := range []bool{false, true} {
		reg := obs.NewRegistry()
		s, err := server.New(server.Config{Schema: cdSchema, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if broadcast {
			s.BroadcastForTest()
		}
		if _, err := s.AddQuery(server.QuerySpec{ID: "cd", Query: cdQuery}); err != nil {
			t.Fatal(err)
		}
		for _, e := range stream {
			if _, err := s.Ingest([]event.Event{e}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if lines := infoLines(t, s, "cd", 0); len(lines) != 0 {
			t.Errorf("broadcast=%t: %d matches, want 0:\n%s", broadcast, len(lines), strings.Join(lines, "\n"))
		}
		if late, _ := reg.Value("ses_server_late_events_total"); late != 1 {
			t.Errorf("broadcast=%t: ses_server_late_events_total = %d, want 1", broadcast, late)
		}
	}
}

// TestLateEventsWithheldAtDispatch sends one straggler to three
// queries. It is late on the stream but not behind anything the routed
// query was delivered (the event that passed it matches none of that
// query's keys), so only a stream-wide judgment withholds it from both
// queries without slack; the slack query reorders it into its match.
func TestLateEventsWithheldAtDispatch(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Schema: cdSchema, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	specs := []server.QuerySpec{
		{ID: "routed", Query: cdQuery},
		{ID: "keyed", Query: cdQuery, Key: "ID"},
		{ID: "slack", Query: cdQuery, Slack: 100},
	}
	for _, spec := range specs {
		if _, err := s.AddQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Ingest([]event.Event{
		cdEvent(0, 1, "C"),
		cdEvent(60, 2, "E"), // no key of the routed query: it is not delivered there
		cdEvent(50, 1, "D"), // the straggler: in c@0's window, behind e@60
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id              string
		events, matches int
	}{
		{"routed", 1, 0}, // c@0 only
		{"keyed", 2, 0},  // c@0 and e@60
		{"slack", 3, 1},  // everything, c@0 and d@50 match
	} {
		info, err := s.Query(c.id)
		if err != nil {
			t.Fatal(err)
		}
		lines := infoLines(t, s, c.id, 0)
		if info.Events != int64(c.events) || len(lines) != c.matches {
			t.Errorf("query %s: %d events and %d matches, want %d and %d:\n%s",
				c.id, info.Events, len(lines), c.events, c.matches, strings.Join(lines, "\n"))
		}
	}
	if late, _ := reg.Value("ses_server_late_events_total"); late != 1 {
		t.Errorf("ses_server_late_events_total = %d, want 1", late)
	}
}
