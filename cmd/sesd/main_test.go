package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHTTPServerTimeouts: slow-header and idle connections are bounded;
// responses are not (TestRunSmoke holds a follow stream across several
// idle timeouts).
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Errorf("timeouts: read-header %s, idle %s, write %s; want the first two positive and no write timeout",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
}

// TestRunSmoke boots the full server in-process, registers a query,
// ingests events, scrapes /metrics and shuts down with SIGTERM — the
// same smoke sequence the CI workflow runs against the built binary.
// A ?follow=1 match stream opened before the ingest stays attached for
// several IdleTimeouts and still receives the drain-time match: the
// server's timeouts must never cut a long-lived response.
func TestRunSmoke(t *testing.T) {
	const idle = 50 * time.Millisecond
	o := options{
		partition:    -1,
		addr:         "127.0.0.1:0",
		schemaSpec:   "ID:int,L:string,V:float,U:string",
		drainTimeout: 10 * time.Second,
		idleTimeout:  idle,
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, os.Stderr, ready) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	post("/queries", `{"id": "smoke", "query": "PATTERN PERMUTE(c, d) THEN (b) WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B' WITHIN 264h"}`)
	followed := make(chan string, 1)
	follow, err := http.Get(base + "/queries/smoke/matches?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer follow.Body.Close()
		b, _ := io.ReadAll(follow.Body)
		followed <- string(b)
	}()
	post("/events", `{"time": 1000, "attrs": {"ID": 1, "L": "C", "V": 1.5, "U": "mg"}}
{"time": 2000, "attrs": {"ID": 1, "L": "D", "V": 84, "U": "mgl"}}
{"time": 3000, "attrs": {"ID": 1, "L": "B", "V": 0, "U": "WHO-Tox"}}`)
	time.Sleep(5 * idle)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"ses_server_events_ingested_total 3", `ses_server_query_events_total{query="smoke"} 3`} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics lacks %q:\n%s", series, metrics)
		}
	}

	// SIGTERM drains and exits cleanly; the drain flushes the window
	// so the registered query emits its match before shutdown.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if got := <-followed; strings.Count(got, "\n") != 1 {
		t.Errorf("follow stream held across %s of idle delivered %q, want the one drain-time match", 5*idle, got)
	}
}

// TestRunSmokeWAL boots sesd with the WAL flags, ingests history with
// no query registered, then registers one with ?backfill=true and
// checks it catches up on the retained log before going live.
func TestRunSmokeWAL(t *testing.T) {
	o := options{
		partition:     -1,
		addr:          "127.0.0.1:0",
		schemaSpec:    "ID:int,L:string,V:float,U:string",
		drainTimeout:  10 * time.Second,
		checkpointDir: t.TempDir(),
		walDir:        t.TempDir(),
		fsync:         "never",
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, os.Stderr, ready) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	// History first, nobody listening: only the WAL sees these.
	post("/events", `{"time": 1000, "attrs": {"ID": 1, "L": "C", "V": 1.5, "U": "mg"}}
{"time": 2000, "attrs": {"ID": 1, "L": "D", "V": 84, "U": "mgl"}}`)
	body := post("/queries?backfill=true", `{"id": "smoke", "query": "PATTERN PERMUTE(c, d) THEN (b) WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B' WITHIN 264h"}`)
	if !strings.Contains(body, `"backfill":true`) {
		t.Fatalf("backfill registration response: %s", body)
	}
	// waitQuery polls the query until its status shows the event count
	// and no catch-up in progress.
	waitQuery := func(events string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/queries/smoke")
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(b), events) && !strings.Contains(string(b), `"catching_up":true`) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("backfill query never caught up: %s", b)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The live event goes in only once catch-up has handed off: a
	// feeder still reading the WAL would replay it as well.
	waitQuery(`"events":2`)
	post("/events", `{"time": 3000, "attrs": {"ID": 1, "L": "B", "V": 0, "U": "WHO-Tox"}}`)

	// The query must see all three events: two replayed, one live.
	waitQuery(`"events":3`)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"ses_wal_appends_total 3", "ses_server_replay_events_total 2", "ses_server_backfills_total 1"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}
