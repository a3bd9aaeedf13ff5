package server_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
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

// TestClockAfterEncodeError: a match that fails to encode does not
// stall a node's SSE clock. The follow of an unkeyed query carries
// ": clock <t>" once it holds every match emitted through t; a dropped
// match is emitted but never logged, and counting only logged lines
// made the follow write no clock line after it, so a router merging
// the stream stopped releasing until drain.
func TestClockAfterEncodeError(t *testing.T) {
	s, err := server.New(server.Config{Schema: singletonSchema})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.AddQuery(server.QuerySpec{ID: "a", Query: singletonQuery}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/queries/a/matches?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Room for every clock line this stream can carry (one per event and
	// the end-of-input one), so the reader never blocks on a test that
	// stopped receiving.
	clocks := make(chan int64, 64)
	go func() {
		defer close(clocks)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), ": clock "); ok {
				c, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return
				}
				clocks <- c
			}
		}
	}()

	// Every 'A' is a match of its own, emitted when the next event, 20 s
	// later, closes its window; the second one's V is NaN.
	evs := labelled(100, "AAAAAAA")
	for i := range evs {
		evs[i].Time = 100 + 20*event.Time(i)
	}
	evs[1].Attrs[2] = event.Float(math.NaN())
	for i := range evs {
		if _, err := s.Ingest(evs[i : i+1]); err != nil {
			t.Fatal(err)
		}
		want := int64(evs[i].Time)
		for timeout := time.After(5 * time.Second); ; {
			select {
			case c, ok := <-clocks:
				if !ok {
					t.Fatalf("follow ended before a clock at %d", want)
				}
				if c < want {
					continue
				}
			case <-timeout:
				t.Fatalf("no clock line at or past %d after ingesting event %d (V=%v)", want, i, evs[i].Attrs[2])
			}
			break
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Query("a"); info.Matches != int64(len(evs)-1) || !strings.Contains(info.Err, "unsupported float") {
		t.Errorf("query a: %d matches, err %q; want %d and the encode error", info.Matches, info.Err, len(evs)-1)
	}
}

// TestServeGroupMatchesReuseEvents: the group pattern's matches share
// most of their events, which the collector renders once per stepped
// block and copies into every later match of the block. Over an
// overlapping stream ingested in several blocks, the served NDJSON
// lines are the library's MatchJSON lines, one per match, in order.
func TestServeGroupMatchesReuseEvents(t *testing.T) {
	const query = `PATTERN PERMUTE(c, d, p+) THEN (b)
WHERE c.L = 'P' AND d.L = 'P' AND p.L = 'P' AND b.L = 'B'
WITHIN 9s`
	evs := labelled(100, strings.Repeat("PPPPBPPPPPPBPPB", 6))
	for i := range evs {
		evs[i].Seq = i // as the server stamps them
		evs[i].Attrs[2] = event.Float(float64(i) * 0.25)
	}

	q, err := ses.Compile(query, singletonSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := q.Runner()
	var ms []ses.Match
	for i := range evs {
		e := evs[i]
		step, err := r.Step(&e)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, step...)
	}
	ms = append(ms, r.Flush()...)
	var want strings.Builder
	uses := map[int]int{}
	for _, m := range ms {
		line, err := ses.MatchJSON(m, singletonSchema)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
		for _, b := range m.Bindings {
			for _, e := range b.Events {
				uses[e.Seq]++
			}
		}
	}
	reused := 0
	for _, n := range uses {
		reused = max(reused, n)
	}
	if len(ms) < 20 || reused < 5 {
		t.Fatalf("%d matches, an event bound in at most %d: the stream must make many matches sharing events", len(ms), reused)
	}

	s, err := server.New(server.Config{Schema: singletonSchema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddQuery(server.QuerySpec{ID: "g", Query: query}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(evs); lo += 7 {
		if _, err := s.Ingest(evs[lo:min(lo+7, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/queries/g/matches", nil))
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("served %d lines, the library %d; served:\n%s\nwant:\n%s",
			strings.Count(got, "\n"), len(ms), got, want.String())
	}
}
