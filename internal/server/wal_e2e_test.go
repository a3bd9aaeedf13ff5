package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/resilience"
	"repro/internal/server"
)

// waitLive polls a query's info until its catch-up feeder has handed
// off to live fan-out.
func waitLive(t *testing.T, s *server.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := s.Query(id)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if !info.CatchingUp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s still catching up: %+v", id, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerCrashReplayByteIdentity is the WAL's core guarantee: a
// server killed mid-stream (Close without Drain, no checkpoints)
// restarts over the same directories and rebuilds every query from its
// own log — the upstream source re-sends nothing, only the second half
// of the stream — and the final match logs are byte-identical to a
// standalone evaluation of the uninterrupted stream.
func TestServerCrashReplayByteIdentity(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2
	cfg := server.Config{
		Schema:        rel.Schema(),
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
		WALFsync:      "never", // crash here is process death, not power loss
	}
	// A huge checkpoint cadence keeps the queries from ever persisting
	// state, so the restart replays the full prefix — the deterministic
	// worst case.
	supervised := []server.QuerySpec{
		{ID: "q1", Query: testSpecs[0].Query, CheckpointEvery: 1 << 30},
		{ID: "q2", Query: testSpecs[1].Query, Filter: true, CheckpointEvery: 1 << 30},
	}
	keyed := server.QuerySpec{ID: "q3-keyed", Query: testSpecs[2].Query, Key: "ID", CheckpointEvery: 1 << 30}

	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range supervised {
		if _, err := s1.AddQuery(spec); err != nil {
			t.Fatalf("AddQuery(%s): %v", spec.ID, err)
		}
	}
	if _, err := s1.AddQuery(keyed); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(rel.Events()[:half]); err != nil {
		t.Fatal(err)
	}
	s1.Close() // crash: no drain, no flush, no checkpoint

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart over WAL dir: %v", err)
	}
	if got := len(s2.Queries()); got != 3 {
		t.Fatalf("restored %d queries, want 3", got)
	}
	// The second half arrives while the feeders may still be replaying
	// the first — the registration fence and catch-up handoff must keep
	// per-query order exact regardless.
	if _, err := s2.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}
	for _, spec := range supervised {
		waitLive(t, s2, spec.ID)
	}
	waitLive(t, s2, keyed.ID)
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	for _, spec := range supervised {
		want := standaloneMatches(t, spec, rel)
		got := infoLines(t, s2, spec.ID, 0)
		if len(want) == 0 {
			t.Fatalf("query %s: standalone produced no matches; test is vacuous", spec.ID)
		}
		if len(got) != len(want) {
			t.Fatalf("query %s: served %d matches after crash replay, standalone %d", spec.ID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("query %s match %d:\nserved:     %s\nstandalone: %s", spec.ID, i, got[i], want[i])
			}
		}
	}
	want := keyedLines(t, keyed.Query, "ID", rel)
	got := infoLines(t, s2, keyed.ID, 0)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("keyed query: served %d matches after crash replay, library keyed runner %d, or they differ", len(got), len(want))
	}
}

// TestServerCrashReplayFromCheckpoint crashes a server after a query
// has persisted a v2 checkpoint, once unkeyed and once keyed by ID. The
// restart resumes the runner at the checkpoint watermark and replays
// only the WAL suffix: the pre-crash log is a prefix of the standalone
// match list (the library keyed runner's for the keyed query), the
// post-restart log is a suffix, and together they cover it.
func TestServerCrashReplayFromCheckpoint(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	for _, key := range []string{"", "ID"} {
		spec := server.QuerySpec{ID: "q1", Query: testSpecs[0].Query, CheckpointEvery: 16, Key: key}
		want := standaloneMatches(t, spec, rel)
		if key != "" {
			want = keyedLines(t, spec.Query, key, rel)
		}
		crashReplayFromCheckpoint(t, rel, spec, want)
	}
}

func crashReplayFromCheckpoint(t *testing.T, rel *event.Relation, spec server.QuerySpec, want []string) {
	t.Helper()
	half := rel.Len() / 2
	cfg := server.Config{
		Schema:        rel.Schema(),
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
		WALFsync:      "never",
	}
	if len(want) == 0 {
		t.Fatal("standalone produced no matches; test is vacuous")
	}

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
	// Wait for the pipeline to consume the backlog (queue empty, a
	// checkpoint on disk, match count stable) before pulling the plug,
	// so the observed pre-crash log is complete.
	ckpt := cfg.CheckpointDir + "/q1.ckpt"
	deadline := time.Now().Add(15 * time.Second)
	var stable int64 = -1
	for {
		info, err := s1.Query("q1")
		if err != nil {
			t.Fatal(err)
		}
		_, ok, _ := resilience.CheckpointOffset(ckpt)
		if ok && info.QueueDepth == 0 && info.Matches == stable {
			break
		}
		stable = info.Matches
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never settled: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}
	preCrash := infoLines(t, s1, "q1", 0)
	s1.Close() // crash

	w, ok, err := resilience.CheckpointOffset(ckpt)
	if err != nil || !ok {
		t.Fatalf("checkpoint watermark: ok=%v err=%v", ok, err)
	}
	if w < 0 || w >= int64(half) {
		t.Fatalf("watermark %d outside ingested prefix [0,%d)", w, half)
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, err := s2.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s2, "q1")
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	postCrash := infoLines(t, s2, "q1", 0)

	// Streaming emission order makes both logs contiguous slices of the
	// standalone list: pre-crash from the front, post-restart from the
	// back (re-emitting whatever followed the persisted watermark).
	for i, line := range preCrash {
		if i >= len(want) || line != want[i] {
			t.Fatalf("pre-crash log is not a standalone prefix at %d:\nserved:     %s", i, line)
		}
	}
	off := len(want) - len(postCrash)
	if off < 0 {
		t.Fatalf("post-restart log has %d matches, standalone only %d", len(postCrash), len(want))
	}
	for i, line := range postCrash {
		if line != want[off+i] {
			t.Fatalf("key %q: post-restart log is not a standalone suffix at %d:\nserved:     %s\nstandalone: %s", spec.Key, i, line, want[off+i])
		}
	}
	if len(preCrash)+len(postCrash) < len(want) {
		t.Fatalf("logs cover %d+%d matches, standalone has %d: matches lost across the crash",
			len(preCrash), len(postCrash), len(want))
	}
}

// TestServerBackfillEquivalence registers a query with backfill after
// most of the stream has already been ingested (with no query
// listening) and checks it produces exactly the matches of a query
// registered before event 0 — the paper semantics over the full
// relation, byte for byte.
func TestServerBackfillEquivalence(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{
		Schema:   rel.Schema(),
		WALDir:   t.TempDir(),
		WALFsync: "never",
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// History accumulates in the WAL with nobody registered.
	if _, err := s.Ingest(rel.Events()[:half]); err != nil {
		t.Fatal(err)
	}

	// A late live registration sees only what follows its fence.
	lateSpec := server.QuerySpec{ID: "late", Query: testSpecs[1].Query, Filter: true}
	if _, err := s.AddQuery(lateSpec); err != nil {
		t.Fatal(err)
	}
	// The backfill registration replays the retained history first.
	bfSpec := server.QuerySpec{ID: "bf", Query: testSpecs[0].Query}
	info, err := s.AddQueryBackfill(bfSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Backfill {
		t.Fatalf("backfill registration info = %+v, want Backfill=true", info)
	}
	if _, err := s.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s, "bf")
	if bfInfo, err := s.Query("bf"); err != nil || !bfInfo.Backfill || bfInfo.ReplayLag != 0 {
		t.Fatalf("caught-up backfill info = %+v, err=%v, want Backfill=true ReplayLag=0", bfInfo, err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Backfill query == query registered before event 0 == standalone.
	want := standaloneMatches(t, bfSpec, rel)
	got := infoLines(t, s, "bf", 0)
	if len(want) == 0 {
		t.Fatal("standalone produced no matches; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("backfill served %d matches, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backfill match %d:\nserved:     %s\nstandalone: %s", i, got[i], want[i])
		}
	}

	// The late live query saw only the second half.
	tail := event.NewRelation(rel.Schema())
	for _, e := range rel.Events()[half:] {
		tail.MustAppend(e.Time, e.Attrs...)
	}
	// The late query's matches carry global stream positions (WAL
	// offsets), so the tail-standalone numbering shifts by the fence.
	wantLate := shiftSeq(standaloneMatches(t, lateSpec, tail), half)
	gotLate := infoLines(t, s, "late", 0)
	if len(gotLate) != len(wantLate) {
		t.Fatalf("late query served %d matches, standalone over the tail %d", len(gotLate), len(wantLate))
	}
	for i := range wantLate {
		if gotLate[i] != wantLate[i] {
			t.Errorf("late match %d:\nserved:     %s\nstandalone: %s", i, gotLate[i], wantLate[i])
		}
	}

	// Replay observability fired.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"ses_server_replay_events_total", "ses_server_backfills_total", "ses_wal_appends_total"} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("metrics output lacks %s", series)
		}
	}
}

// TestServerBackfillRequiresWAL: without a WAL there is no history.
func TestServerBackfillRequiresWAL(t *testing.T) {
	s, err := server.New(server.Config{Schema: paperdata.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQueryBackfill(testSpecs[0]); !errors.Is(err, server.ErrNoWAL) {
		t.Fatalf("AddQueryBackfill without WAL = %v, want ErrNoWAL", err)
	}
}

// TestHTTPBackfillParam drives the registration paths through the HTTP
// layer: ?backfill=true replays history, garbage values are rejected.
func TestHTTPBackfillParam(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}

	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := post(srv.URL+"/queries?backfill=true", `{"id":"q1","query":`+jsonString(paperdata.QueryQ1Text)+`}`)
	if code != 201 || !strings.Contains(body, `"backfill":true`) {
		t.Fatalf("backfill register: code=%d body=%s", code, body)
	}
	if code, body := post(srv.URL+"/queries?backfill=maybe", `{"id":"q2","query":"PATTERN"}`); code != 400 {
		t.Fatalf("garbage backfill value: code=%d body=%s", code, body)
	}
	waitLive(t, s, "q1")
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneMatches(t, server.QuerySpec{ID: "q1", Query: paperdata.QueryQ1Text}, rel)
	got := infoLines(t, s, "q1", 0)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("HTTP backfill served %d matches, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d:\nserved:     %s\nstandalone: %s", i, got[i], want[i])
		}
	}
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestServerManifestRestoresBackfillFlag: the manifest round-trips the
// registration fence and backfill marker across a clean drain/restart.
func TestServerManifestRestoresBackfillFlag(t *testing.T) {
	rel := paperdata.Relation()
	cfg := server.Config{
		Schema:        rel.Schema(),
		CheckpointDir: t.TempDir(),
		WALDir:        t.TempDir(),
		WALFsync:      "never",
	}
	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(rel.Events()[:7]); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.AddQueryBackfill(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s1, "q1")
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// No Q1 match completes within the paper's first seven events (every
	// match needs a blood count from day 12+), so the drained run emitted
	// nothing and the restarted run must reproduce the full standalone
	// list. A non-empty log here would invalidate the comparison below.
	if pre := infoLines(t, s1, "q1", 0); len(pre) != 0 {
		t.Fatalf("drained run emitted %d matches over the 7-event prefix, want 0: %v", len(pre), pre)
	}
	if data, err := os.ReadFile(cfg.CheckpointDir + "/queries.json"); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(string(data), `"backfill": true`) {
		t.Fatalf("manifest lacks backfill marker:\n%s", data)
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitLive(t, s2, "q1")
	info, err := s2.Query("q1")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Backfill {
		t.Fatalf("restored query info = %+v, want Backfill=true", info)
	}
	if _, err := s2.Ingest(rel.Events()[7:]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneMatches(t, testSpecs[0], rel)
	got := infoLines(t, s2, "q1", 0)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("restored backfill query served %d matches, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d:\nserved:     %s\nstandalone: %s", i, got[i], want[i])
		}
	}
}

// TestServerManifestRestoresShardedSpec: a manifest whose keyed spec
// still carries the removed "shards" worker count restores the query
// keyed by its "key", and it serves the library keyed runner's matches.
func TestServerManifestRestoresShardedSpec(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	cfg := server.Config{Schema: rel.Schema(), CheckpointDir: t.TempDir()}
	manifest := `{"queries":[{"id":"k","query":` + jsonString(testSpecs[2].Query) + `,"key":"ID","shards":2}]}`
	if err := os.WriteFile(cfg.CheckpointDir+"/queries.json", []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := keyedLines(t, testSpecs[2].Query, "ID", rel)
	got := infoLines(t, s, "k", 0)
	unkeyed := standaloneMatches(t, testSpecs[2], rel)
	if strings.Join(want, "\n") == strings.Join(unkeyed, "\n") {
		t.Fatal("keyed and unkeyed evaluation agree on this stream; the test cannot tell them apart")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restored query served %d matches, library keyed runner %d, or they differ", len(got), len(want))
	}
}
