package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/server"
)

// ndjsonBody renders a relation's events as the ingest wire format.
func ndjsonBody(t *testing.T, rel *event.Relation) string {
	t.Helper()
	var b strings.Builder
	schema := rel.Schema()
	for i := 0; i < rel.Len(); i++ {
		e := rel.Event(i)
		attrs := make(map[string]interface{}, schema.NumFields())
		for j := 0; j < schema.NumFields(); j++ {
			f := schema.Field(j)
			switch f.Type {
			case event.TypeString:
				attrs[f.Name] = e.Attrs[j].Str()
			case event.TypeInt:
				attrs[f.Name] = e.Attrs[j].Int64()
			default:
				attrs[f.Name] = e.Attrs[j].Float64()
			}
		}
		line, err := json.Marshal(map[string]interface{}{"time": int64(e.Time), "attrs": attrs})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func postJSON(t *testing.T, client *http.Client, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Register the three queries.
	for _, spec := range testSpecs {
		resp := postJSON(t, client, ts.URL+"/queries", spec)
		if resp.StatusCode != http.StatusCreated {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /queries %s = %d: %s", spec.ID, resp.StatusCode, body)
		}
		var info server.QueryInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.ID != spec.ID || info.Fingerprint == "" {
			t.Fatalf("POST /queries %s returned %+v", spec.ID, info)
		}
	}

	// Duplicate registration conflicts.
	if resp := postJSON(t, client, ts.URL+"/queries", testSpecs[0]); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate POST /queries = %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Malformed spec is a bad request.
	if resp := postJSON(t, client, ts.URL+"/queries", server.QuerySpec{ID: "bad", Query: "PATTERN"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST /queries = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Ingest the paper's relation as one NDJSON batch.
	resp, err := client.Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(ndjsonBody(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	var ingested struct {
		Ingested int `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ingested); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ingested.Ingested != rel.Len() {
		t.Fatalf("POST /events = %d, ingested %d, want 200 and %d", resp.StatusCode, ingested.Ingested, rel.Len())
	}

	// A malformed line rejects the whole batch.
	resp, err = client.Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(`{"time": 1, "attrs": {"bogus": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad event line = %d, want 400", resp.StatusCode)
	}

	// List the registry.
	resp, err = client.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Queries []server.QueryInfo `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Queries) != len(testSpecs) {
		t.Fatalf("GET /queries listed %d, want %d", len(list.Queries), len(testSpecs))
	}

	// Health and metrics.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "ses_server_events_ingested_total") {
			t.Fatalf("GET /metrics lacks server series:\n%s", body)
		}
	}

	// Drain so every pipeline flushes, then stream each query's
	// matches and compare byte-for-byte with the standalone library.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs {
		want := standaloneMatches(t, spec, rel)
		resp, err := client.Get(ts.URL + "/queries/" + spec.ID + "/matches")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("matches content type = %q", ct)
		}
		var got []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				got = append(got, line)
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %s: streamed %d matches, standalone %d", spec.ID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("query %s match %d:\nstreamed:   %s\nstandalone: %s", spec.ID, i, got[i], want[i])
			}
		}
	}

	// Post-drain ingest is refused.
	resp, err = client.Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(ndjsonBody(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST /events = %d, want 503", resp.StatusCode)
	}

	// Unknown query 404s.
	resp, err = client.Get(ts.URL + "/queries/nope/matches")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown matches = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPFollowSSE(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	if resp := postJSON(t, client, ts.URL+"/queries", testSpecs[0]); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Open a live SSE follow stream before any event exists.
	req, err := http.NewRequest("GET", ts.URL+"/queries/q1/matches?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	type sseEvent struct {
		id, event, data string
	}
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				events <- cur
				cur = sseEvent{}
			case strings.HasPrefix(line, "id: "):
				cur.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				cur.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[len("data: "):]
			}
		}
	}()

	// Ingest, then drain: matches flow to the live follower as they
	// are emitted (some only at the end-of-input flush the drain
	// triggers), terminated by the end-of-stream event.
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneMatches(t, testSpecs[0], rel)
	var got []sseEvent
	deadline := time.After(10 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-events:
			if !ok || ev.event == "end" {
				break collect
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timed out after %d/%d SSE events", len(got), len(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("SSE stream delivered %d matches, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.id != fmt.Sprint(i) || ev.data != want[i] {
			t.Errorf("SSE event %d = id %q data %s, want id %d data %s", i, ev.id, ev.data, i, want[i])
		}
	}
}

// TestHTTPConcurrentRegisterIngestRemove exercises the registry under
// concurrent registration, ingest, match reads and removal. Run with
// -race; correctness here is the absence of races, deadlocks and
// non-2xx/4xx surprises, and every ingested event either reaching the
// stable query or being withheld as late (rounds after the first
// re-post earlier times).
func TestHTTPConcurrentRegisterIngestRemove(t *testing.T) {
	rel := paperdata.Relation()
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg, Mailbox: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// One stable query so ingest always has a consumer.
	if resp := postJSON(t, client, ts.URL+"/queries", testSpecs[0]); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	const rounds = 20
	body := ndjsonBody(t, rel)
	var wg sync.WaitGroup

	// Ingester.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := client.Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Churner: registers and removes short-lived queries. Each round
	// uses a distinct WITHIN to get a distinct fingerprint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			spec := server.QuerySpec{
				ID:        fmt.Sprintf("churn-%d", i),
				Admission: "drop",
				Query: fmt.Sprintf(`
PATTERN PERMUTE(c, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B'
WITHIN %dh`, 100+i),
			}
			resp := postJSON(t, client, ts.URL+"/queries", spec)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("churn register %d = %d", i, resp.StatusCode)
				return
			}
			req, _ := http.NewRequest("DELETE", ts.URL+"/queries/"+spec.ID, nil)
			resp, err := client.Do(req)
			if err != nil {
				t.Errorf("churn remove %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Errorf("churn remove %d = %d", i, resp.StatusCode)
				return
			}
		}
	}()

	// Reader: lists queries and reads the stable query's matches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, path := range []string{"/queries", "/queries/q1/matches", "/metrics"} {
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Errorf("read %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := s.Query("q1")
	if err != nil {
		t.Fatal(err)
	}
	late, _ := reg.Value("ses_server_late_events_total")
	if !info.Done || info.Events+late != int64(rounds*rel.Len()) {
		t.Fatalf("stable query info = %+v with %d late events, want done after %d events", info, late, rounds*rel.Len())
	}
}

// TestHTTPIngestBodyTooLarge: a POST /events body over the cap is
// refused whole with 413 and a JSON error — even when the cap falls on
// a line boundary, where a truncating reader would acknowledge the
// prefix and lose the tail — and a body at the cap still ingests.
func TestHTTPIngestBodyTooLarge(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.BroadcastForTest() // the query's event counter sees every ingested event
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	body := ndjsonBody(t, rel)
	lines := strings.SplitAfter(body, "\n")
	prefix := strings.Join(lines[:3], "")
	s.SetMaxIngestBodyForTest(int64(len(prefix)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || doc["error"] == "" {
		t.Fatalf("oversized POST /events = %d %v, want 413 with an error", resp.StatusCode, doc)
	}
	if info, err := s.Query(testSpecs[0].ID); err != nil || info.Events != 0 {
		t.Fatalf("rejected body reached the query: %+v, %v", info, err)
	}

	resp, err = ts.Client().Post(ts.URL+"/events", "application/x-ndjson", strings.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /events at the cap = %d, want 200", resp.StatusCode)
	}
	if info, err := s.Query(testSpecs[0].ID); err != nil || info.Events != 3 {
		t.Fatalf("body at the cap: query saw %+v, %v; want 3 events", info, err)
	}
}

// TestHTTPRejectsShardsField: the keyed pipeline has no worker count, so
// a registration still naming "shards" is a client error, not a knob
// silently dropped.
func TestHTTPRejectsShardsField(t *testing.T) {
	s, err := server.New(server.Config{Schema: paperdata.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := map[string]any{"id": "k", "query": paperdata.QueryQ1Text, "key": "ID", "shards": 2}
	resp := postJSON(t, ts.Client(), ts.URL+"/queries", body)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"shards\"`) {
		t.Errorf("POST /queries with shards = %d %s, want 400 naming the unknown field", resp.StatusCode, msg)
	}
	if len(s.Queries()) != 0 {
		t.Error("the refused registration was registered")
	}
}
