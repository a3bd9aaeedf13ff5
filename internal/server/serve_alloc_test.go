//go:build !race

// Allocation counts mean nothing under the race detector, so this file
// is left out of -race builds.

package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/event"
	"repro/internal/server"
)

// TestServeMatchesAllocations bounds what a warmed server allocates per
// match it serves, end to end from Ingest to a live NDJSON follower:
// step, checkpoints, encode, match log and HTTP write, at the server's
// default settings. Every event of the stream is a match, so the
// per-match cost dominates. Matches travel a stepped block at a time —
// one handoff, one encode buffer, one log append and one write per
// block — and the bound is half an allocation; handing them over,
// encoding, logging and writing them one at a time cost 5.5 here.
func TestServeMatchesAllocations(t *testing.T) {
	const bs, nblocks = 256, 48
	blocks := make([][]event.Event, nblocks)
	for b := range blocks {
		blocks[b] = labelled(event.Time(100+b*bs), strings.Repeat("A", bs))
	}
	// want[b] is how many matches have been emitted once block b is
	// stepped: the library runner's count over the same stream.
	q, err := ses.Compile(singletonQuery, singletonSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := q.Runner()
	want := make([]int64, nblocks)
	var emitted int64
	for b := range blocks {
		for i := range blocks[b] {
			ms, err := r.Step(&blocks[b][i])
			if err != nil {
				t.Fatal(err)
			}
			emitted += int64(len(ms))
		}
		want[b] = emitted
	}

	s, err := server.New(server.Config{Schema: singletonSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQuery(server.QuerySpec{ID: "a", Query: singletonQuery}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/queries/a/matches?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served atomic.Int64
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			served.Add(int64(bytes.Count(buf[:n], []byte{'\n'})))
			if err != nil {
				return
			}
		}
	}()

	next := 0
	serve := func() {
		if _, err := s.Ingest(blocks[next]); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); served.Load() < want[next]; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("block %d: %d lines served, want %d", next, served.Load(), want[next])
			}
		}
		next++
	}
	for next < 8 {
		serve()
	}
	runs := nblocks - next
	perBlock := testing.AllocsPerRun(runs-1, serve) // AllocsPerRun adds a warm-up run
	perMatch := perBlock * float64(runs) / float64(want[nblocks-1]-want[7])
	t.Logf("%.1f allocations per block, %.3f per served match", perBlock, perMatch)
	if perMatch > 0.5 {
		t.Errorf("%.3f allocations per served match, want at most 0.5", perMatch)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow status %d", resp.StatusCode)
	}
}
