package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/resilience"
	"repro/internal/server"
)

// aggQ1Text is Query Q1 with an aggregation clause: per-patient match
// count, total chemotherapy dose over the p+ binding, and the maximum
// value over all bound events.
var aggQ1Text = paperdata.QueryQ1Text + `
AGGREGATE count, sum(p.V), max(V) PER PARTITION ID`

// standaloneStats evaluates an AGGREGATE query with the library's
// batch API and returns its stats document — the golden bytes the
// serving layer must reproduce.
func standaloneStats(t *testing.T, query string, rel *event.Relation) []byte {
	t.Helper()
	q, err := ses.Compile(query, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := q.Aggregate(rel)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerStatsEndToEnd: an AGGREGATE query registered on the
// server defaults to aggregate-only (empty match log), its stats are
// byte-identical to the standalone batch evaluation, and the /stats
// endpoint serves them with the aggregate metrics registered.
func TestServerStatsEndToEnd(t *testing.T) {
	rel := paperdata.Relation()
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	info, err := s.AddQuery(server.QuerySpec{ID: "agg", Query: aggQ1Text})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Aggregate {
		t.Fatalf("registration info = %+v, want Aggregate=true", info)
	}
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := standaloneStats(t, aggQ1Text, rel)
	data, ver, _, err := s.Stats("agg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("served stats differ from standalone:\nserved:     %s\nstandalone: %s", data, want)
	}
	if ver == 0 {
		t.Error("stats ver = 0 after a full ingest; test is vacuous")
	}

	// Aggregate-only: the match log stays empty while the plain query
	// materialized as usual.
	if lines := infoLines(t, s, "agg", 0); len(lines) != 0 {
		t.Errorf("aggregate-only query appended %d match-log lines", len(lines))
	}
	if lines := infoLines(t, s, "q1", 0); len(lines) == 0 {
		t.Error("companion query materialized no matches; test is vacuous")
	}
	info, err = s.Query("agg")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Aggregate || info.AggVersion != ver || info.AggGroups != 2 {
		t.Errorf("query info = %+v, want Aggregate=true AggVersion=%d AggGroups=2", info, ver)
	}

	// The HTTP endpoint serves the same bytes.
	resp, err := ts.Client().Get(ts.URL + "/queries/agg/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET /stats = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if string(body) != string(want)+"\n" {
		t.Errorf("HTTP stats body:\n got %s\nwant %s", body, want)
	}

	// A non-zero since renders a delta carrying only the groups folded
	// into after that version — here everything past the first fold.
	if delta, dver, _, err := s.Stats("agg", 1); err != nil || dver != ver ||
		!bytes.Contains(delta, []byte(`"delta":true`)) {
		t.Errorf("Stats(since=1) = %s (ver %d, err %v), want a delta at ver %d", delta, dver, err, ver)
	}
	if same, _, _, err := s.Stats("agg", ver); err != nil || same != nil {
		t.Errorf("Stats(since=ver) = %s, err %v, want nil data", same, err)
	}

	// Errors: stats of a non-AGGREGATE query is a client error, an
	// unknown query 404s.
	if resp, err := ts.Client().Get(ts.URL + "/queries/q1/stats"); err != nil {
		t.Fatal(err)
	} else if body, _ := readAll(resp); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "no AGGREGATE clause") {
		t.Errorf("stats of plain query = %d %s", resp.StatusCode, body)
	}
	if resp, err := ts.Client().Get(ts.URL + "/queries/nope/stats"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats of unknown query = %d", resp.StatusCode)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"ses_agg_folds_total", "ses_agg_groups", "ses_agg_stats_requests_total"} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("metrics output lacks %s", series)
		}
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestServerStatsMaterialize: Materialize opts an AGGREGATE query
// back into match-log appends — both surfaces stay byte-identical to
// their standalone counterparts — and the spec combinations that
// cannot work are rejected at registration.
func TestServerStatsMaterialize(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQuery(server.QuerySpec{ID: "both", Query: aggQ1Text, Materialize: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, _, _, err := s.Stats("both", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := standaloneStats(t, aggQ1Text, rel); !bytes.Equal(data, want) {
		t.Errorf("materializing stats differ from standalone:\n%s\n%s", data, want)
	}
	got := infoLines(t, s, "both", 0)
	want := standaloneMatches(t, server.QuerySpec{ID: "both", Query: aggQ1Text}, rel)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("materializing query logged %d matches, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d:\nserved:     %s\nstandalone: %s", i, got[i], want[i])
		}
	}

	// Rejection: materialize without AGGREGATE.
	if _, err := s.AddQuery(server.QuerySpec{ID: "m", Query: testSpecs[0].Query, Materialize: true}); err == nil ||
		!strings.Contains(err.Error(), "materialize") {
		t.Errorf("materialize without AGGREGATE: err = %v", err)
	}
	// Stats of a non-existent query errors through the API too.
	if _, _, _, err := s.Stats("q-none", 0); err == nil {
		t.Error("Stats of unknown query must error")
	}
}

// TestServerKeyedStats: an AGGREGATE query keyed by ID registers, and
// its stats document is the library keyed runner's fold byte for byte.
func TestServerKeyedStats(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQuery(server.QuerySpec{ID: "agg", Query: aggQ1Text, Key: "ID"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, ver, _, err := s.Stats("agg", 0)
	if err != nil {
		t.Fatal(err)
	}

	q, err := ses.Compile(aggQ1Text, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := q.NewAggregator()
	if err != nil {
		t.Fatal(err)
	}
	r, err := q.KeyedRunner("ID", ses.WithAggregation(ag), ses.WithAggregateOnly(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.Len(); i++ {
		if _, err := r.Step(rel.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	want, _, _ := ag.Stats(0)
	if ver == 0 || !bytes.Equal(data, want) {
		t.Errorf("keyed stats (ver %d) differ from the library keyed runner's:\nserved:  %s\nlibrary: %s", ver, data, want)
	}
}

// TestHTTPStatsFollow drives ?follow=1: an immediate ver-0 snapshot
// frame, delta frames as matches fold, and a terminating end event
// once the drained pipeline closes the aggregator.
func TestHTTPStatsFollow(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	spec := server.QuerySpec{ID: "agg", Query: aggQ1Text}
	if resp := postJSON(t, client, ts.URL+"/queries", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /queries = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	req, err := http.NewRequest("GET", ts.URL+"/queries/agg/stats?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	type frame struct{ id, event, data string }
	frames := make(chan frame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var cur frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				frames <- cur
				cur = frame{}
			case strings.HasPrefix(line, "id: "):
				cur.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				cur.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[len("data: "):]
			}
		}
	}()

	first := <-frames
	if first.id != "0" || !strings.Contains(first.data, `"groups":[]`) {
		t.Fatalf("first frame = %+v, want empty ver-0 snapshot", first)
	}

	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var got []frame
	deadline := time.After(10 * time.Second)
collect:
	for {
		select {
		case f, ok := <-frames:
			if !ok || f.event == "end" {
				break collect
			}
			got = append(got, f)
		case <-deadline:
			t.Fatalf("timed out after %d frames", len(got))
		}
	}
	if len(got) == 0 {
		t.Fatal("no frames before end-of-stream")
	}
	// Wakes may coalesce several folds into one frame, so the exact
	// frame count is timing-dependent — but the protocol invariants are
	// not: ids (versions) strictly increase, a frame following a
	// non-zero version is a delta, and the final frame carries the
	// complete fold history (ver 3).
	prev := "0"
	for i, f := range got {
		var doc struct {
			Ver   uint64 `json:"ver"`
			Delta bool   `json:"delta"`
		}
		if err := json.Unmarshal([]byte(f.data), &doc); err != nil {
			t.Fatalf("frame %d does not parse: %v\n%s", i, err, f.data)
		}
		if f.id <= prev {
			t.Errorf("frame %d: id %s does not advance past %s", i, f.id, prev)
		}
		if wantDelta := prev != "0"; doc.Delta != wantDelta {
			t.Errorf("frame %d (since %s): delta = %v, want %v\n%s", i, prev, doc.Delta, wantDelta, f.data)
		}
		prev = f.id
	}
	if final := got[len(got)-1]; final.id != "3" {
		t.Errorf("final frame id = %s, want 3 (all folds delivered)", final.id)
	}
}

// TestServerStatsCrashReplayByteIdentity: a server crash-restarted
// over its WAL refolds the replayed history into the aggregator —
// the post-recovery stats document is byte-identical to a standalone
// evaluation of the uninterrupted stream, and the aggregate-only
// query still appended nothing to its match log.
func TestServerStatsCrashReplayByteIdentity(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2
	cfg := server.Config{
		Schema:        rel.Schema(),
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
		WALFsync:      "never",
	}
	spec := server.QuerySpec{ID: "agg", Query: aggQ1Text, CheckpointEvery: 1 << 30}

	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AddQuery(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(rel.Events()[:half]); err != nil {
		t.Fatal(err)
	}
	s1.Close() // crash: no drain, no checkpoint

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart over WAL dir: %v", err)
	}
	info, err := s2.Query("agg")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Aggregate {
		t.Fatalf("restored query info = %+v, want Aggregate=true", info)
	}
	if _, err := s2.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s2, "agg")
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := standaloneStats(t, aggQ1Text, rel)
	data, ver, _, err := s2.Stats("agg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ver == 0 {
		t.Fatal("no folds after crash replay; test is vacuous")
	}
	if !bytes.Equal(data, want) {
		t.Errorf("post-recovery stats differ from standalone:\nserved:     %s\nstandalone: %s", data, want)
	}
	if lines := infoLines(t, s2, "agg", 0); len(lines) != 0 {
		t.Errorf("aggregate-only query appended %d match-log lines across the crash", len(lines))
	}
}

// TestServerStatsCheckpointRestore crashes after a supervised
// AGGREGATE query has persisted a checkpoint: the restart restores
// the aggregator's fold history from the version-2 snapshot, replays
// only the WAL suffix, and still converges to the standalone stats
// byte for byte.
func TestServerStatsCheckpointRestore(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2
	cfg := server.Config{
		Schema:        rel.Schema(),
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
		WALFsync:      "never",
	}
	spec := server.QuerySpec{ID: "agg", Query: aggQ1Text, CheckpointEvery: 16}

	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AddQuery(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(rel.Events()[:half]); err != nil {
		t.Fatal(err)
	}
	// Wait until a checkpoint exists and the pipeline has settled so
	// the restart genuinely resumes mid-stream state.
	ckpt := cfg.CheckpointDir + "/agg.ckpt"
	deadline := time.Now().Add(15 * time.Second)
	var stable uint64
	for {
		info, err := s1.Query("agg")
		if err != nil {
			t.Fatal(err)
		}
		_, ok, _ := resilience.CheckpointOffset(ckpt)
		if ok && info.QueueDepth == 0 && info.AggVersion == stable {
			break
		}
		stable = info.AggVersion
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never settled: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s1.Close() // crash

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, err := s2.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s2, "agg")
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneStats(t, aggQ1Text, rel)
	data, _, _, err := s2.Stats("agg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("checkpoint-resumed stats differ from standalone:\nserved:     %s\nstandalone: %s", data, want)
	}
}
