package server_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/server"
)

// singletonSchema and singletonQuery make one match per 'A' event,
// emitted once the stream clock passes the event's 16-second window.
var singletonSchema = event.MustSchema(
	event.Field{Name: "ID", Type: event.TypeInt},
	event.Field{Name: "L", Type: event.TypeString},
	event.Field{Name: "V", Type: event.TypeFloat},
)

const singletonQuery = "PATTERN (a) WHERE a.L = 'A' WITHIN 16s"

// labelled returns one event per label, a second apart from time t0,
// with ID its position and V = 1.
func labelled(t0 event.Time, labels string) []event.Event {
	evs := make([]event.Event, len(labels))
	for i := range evs {
		evs[i] = event.Event{Time: t0 + event.Time(i), Attrs: []event.Value{
			event.Int(int64(i)), event.String(labels[i : i+1]), event.Float(1)}}
	}
	return evs
}

// getSSE reads one query's match stream as SSE to its end.
func getSSE(t *testing.T, h http.Handler, id string, from int64) string {
	t.Helper()
	req := httptest.NewRequest("GET", fmt.Sprintf("/queries/%s/matches?from=%d", id, from), nil)
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET matches from %d = %d: %s", from, rec.Code, rec.Body)
	}
	body, _ := io.ReadAll(rec.Body)
	return string(body)
}

// TestMatchLogSSEIDsAfterEviction: a read that starts below the match
// log's retention window labels every SSE line with the line's own
// offset, so a client resuming at its last id + 1 gets nothing twice.
// A 96-match stream into an 8-line log keeps offsets 88–95; the reader
// used to label them 0–7, and resuming at 8 re-served all eight.
func TestMatchLogSSEIDsAfterEviction(t *testing.T) {
	s, err := server.New(server.Config{Schema: singletonSchema, MatchLog: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddQuery(server.QuerySpec{ID: "a", Query: singletonQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(labelled(100, strings.Repeat("A", 96))); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Query("a"); info.Matches != 96 || info.LogStart != 88 || info.LogEnd != 96 {
		t.Fatalf("query a: %d matches, log [%d, %d); want 96 matches, log [88, 96)", info.Matches, info.LogStart, info.LogEnd)
	}
	h := s.Handler()

	var ids []string
	for _, line := range strings.Split(getSSE(t, h, "a", 0), "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, id)
		}
	}
	if got, want := strings.Join(ids, " "), "88 89 90 91 92 93 94 95"; got != want {
		t.Fatalf("ids of a read from 0: %s, want %s", got, want)
	}
	if rest := getSSE(t, h, "a", 96); rest != "event: end\ndata: {}\n\n" {
		t.Errorf("resuming at the last id + 1 served %q, want only the end event", rest)
	}
}

// TestCollectServesRestOfBlockOnEncodeError: a match that cannot be
// encoded (a NaN attribute) is left out of the match log with its error
// reported in QueryInfo.Err, and the other matches of the same stepped
// block are served.
func TestCollectServesRestOfBlockOnEncodeError(t *testing.T) {
	s, err := server.New(server.Config{Schema: singletonSchema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddQuery(server.QuerySpec{ID: "a", Query: singletonQuery}); err != nil {
		t.Fatal(err)
	}
	// The drain's end-of-input flush emits the three matches as one
	// block.
	evs := labelled(100, "AAA")
	evs[1].Attrs[2] = event.Float(math.NaN())
	if _, err := s.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines, err := s.Matches("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range lines {
		got = append(got, string(l))
	}
	want := []string{
		`{"first":100,"last":100,"bindings":[{"var":"a","events":[{"seq":0,"time":100,"attrs":{"ID":0,"L":"A","V":1}}]}]}`,
		`{"first":102,"last":102,"bindings":[{"var":"a","events":[{"seq":2,"time":102,"attrs":{"ID":2,"L":"A","V":1}}]}]}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("served lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if info, _ := s.Query("a"); !strings.Contains(info.Err, "unsupported float") || info.Matches != 2 {
		t.Errorf("query a: %d matches, err %q; want 2 and the encode error", info.Matches, info.Err)
	}
}
