//go:build !race

// Heap and allocation readings mean nothing under the race detector,
// so this file is left out of -race builds.

package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/server"
)

// TestHeapFlatServer is ROADMAP item 4's soak, in-process: twenty
// time-shifted passes of a chemo stream through Server.Ingest, matches
// read back through Server.Matches, and — with every mailbox drained —
// a live heap that is the queries' τ windows plus their (full) match
// logs, not their uptime. A bound event used to pin its decoded block
// for good through the engine's arena chunks; this test then read 5.9x.
func TestHeapFlatServer(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Small())
	reg := obs.NewRegistry()
	// A short match log is full within the first pass, so from then on
	// it is a constant.
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg, MatchLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	specs := []server.QuerySpec{
		{ID: "q1", Query: paperdata.QueryQ1Text, Filter: true},
		{ID: "agg", Query: paperdata.QueryQ1Text + "\nAGGREGATE count, sum(p.V)", Filter: true},
	}
	for _, spec := range specs {
		if _, err := s.AddQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	// idle waits until every pipeline has stepped what was delivered to
	// its mailbox, except the events its reorderer holds back: those tied
	// at the newest timestamp, of which there are at most ties.
	ties, run := int64(1), int64(1)
	for i := 1; i < rel.Len(); i++ {
		if rel.Event(i).Time != rel.Event(i-1).Time {
			run = 0
		}
		run++
		ties = max(ties, run)
	}
	idle := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			busy := false
			for _, q := range s.Queries() {
				stepped, _ := reg.Value(obs.SeriesName("ses_resilience_events_total", "query", q.ID))
				if q.QueueDepth > 0 || stepped < q.Events-ties {
					busy = true
				}
			}
			if !busy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("pipelines did not drain their mailboxes")
			}
			time.Sleep(time.Millisecond)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	first, last, _ := rel.TimeSpan()
	stride := last - first + event.Time(paperdata.Within) + 1
	src := rel.Events()
	nf := rel.Schema().NumFields()
	var heap2, heap20 uint64
	for pass := 1; pass <= 20; pass++ {
		for lo := 0; lo < len(src); lo += 256 {
			// One decoded block: its values share an array, as
			// BlockDecoder.Finish lays them out.
			hi := min(lo+256, len(src))
			batch := make([]event.Event, hi-lo)
			vals := make([]event.Value, (hi-lo)*nf)
			for i := range batch {
				row := vals[i*nf : (i+1)*nf : (i+1)*nf]
				copy(row, src[lo+i].Attrs)
				batch[i] = event.Event{Time: src[lo+i].Time + event.Time(pass)*stride, Attrs: row}
			}
			if _, err := s.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		idle()
		if lines, err := s.Matches("q1", 0); err != nil || len(lines) == 0 {
			t.Fatalf("pass %d: Matches(q1) = %d lines, %v", pass, len(lines), err)
		}
		switch pass {
		case 2:
			heap2 = liveHeap()
		case 20:
			heap20 = liveHeap()
		}
	}
	if float64(heap20) > 1.25*float64(heap2) {
		t.Errorf("live heap after pass 20 is %d B, %.2fx the %d B after pass 2 (want <= 1.25x)",
			heap20, float64(heap20)/float64(heap2), heap2)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q, _ := s.Query("q1"); q.Matches == 0 || q.Shed != 0 || q.Err != "" {
		t.Errorf("q1 after drain: %+v", q)
	}
}

// TestIngestHandlerAllocBytes bounds what one warmed POST /events of
// 256 events allocates with no query registered: the decoded block
// (events, values, strings) and small change. The handler used to add a
// fresh 64 KiB scanner buffer, a large object the runtime zeroes, and
// dispatch a second copy of the batch; it measured 136,336 B here, and
// the bound is that less 64 KiB.
func TestIngestHandlerAllocBytes(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Small())
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub := event.NewRelation(rel.Schema())
	for i := 0; i < 256; i++ {
		e := rel.Event(i)
		sub.MustAppend(e.Time, e.Attrs...)
	}
	body := ndjsonBody(t, sub)
	h := s.Handler()
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/events", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /events: %d %s", rec.Code, rec.Body)
		}
	}
	post() // warm the free list and the decoder's buffers
	const posts = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perPost := (after.TotalAlloc - before.TotalAlloc) / posts
	if limit := uint64(136336 - 64<<10); perPost > limit {
		t.Errorf("one 256-event POST allocates %d B, want at most %d", perPost, limit)
	}
}
