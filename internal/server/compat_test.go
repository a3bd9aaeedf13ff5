package server_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/server"
	"repro/internal/wal"
)

// writeLegacyWAL writes events as segment 0 in the format of logs
// written before records carried their seq: the bare schema in the
// header and payloads without the leading seq varint.
func writeLegacyWAL(t *testing.T, dir string, schema *event.Schema, events []event.Event) {
	t.Helper()
	s := schema.String()
	buf := append([]byte("SESWAL1\n"), byte(len(s)), byte(len(s)>>8))
	buf = append(buf, s...)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	for i := range events {
		payload := wal.EncodeEvent(nil, schema, &events[i])
		_, n := binary.Varint(payload)
		buf = wal.EncodeFrame(buf, payload[n:])
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000000.wal"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A WAL in the legacy format serves its records at seq = offset: a
// partition node refuses it, and a single node backfills a query over
// it and numbers the next ingest on from the last offset, so the query
// serves the standalone evaluation of the whole stream.
func TestLegacyWALKeepsStreamPositions(t *testing.T) {
	rel := paperdata.Relation()
	const n = 7
	dir := t.TempDir()
	writeLegacyWAL(t, dir, rel.Schema(), rel.Events()[:n])

	own := &cluster.Ownership{Key: "ID", Slots: 16, Lo: 0, Hi: 16}
	if s, err := server.New(server.Config{Schema: rel.Schema(), WALDir: dir, Ownership: own}); err == nil {
		s.Close()
		t.Fatal("a partition node opened a WAL holding legacy segments")
	}

	s, err := server.New(server.Config{Schema: rel.Schema(), WALDir: dir, WALFsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LastSeq(); got != n-1 {
		t.Fatalf("LastSeq over the legacy log = %d, want %d", got, n-1)
	}
	if _, err := s.AddQueryBackfill(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	waitLive(t, s, "q1")
	if _, err := s.Ingest(rel.Events()[n:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := standaloneMatches(t, testSpecs[0], rel)
	got := infoLines(t, s, "q1", 0)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("served %d matches over the legacy log, standalone %d, or they differ", len(got), len(want))
	}
}

// A manifest written when a query carried an offset fence only
// ("registered") resumes the query at that fence: it replays the
// logged records from there and serves what a query registered at
// that point of the stream serves.
func TestManifestOffsetFenceResumes(t *testing.T) {
	rel := paperdata.Relation()
	const fence, logged = 3, 7
	cfg := server.Config{Schema: rel.Schema(), CheckpointDir: t.TempDir(), WALDir: t.TempDir(), WALFsync: "never"}
	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest(rel.Events()[:logged]); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	manifest := `{"queries":[{"id":"q1","query":` + jsonString(testSpecs[0].Query) + `}],"offsets":{"q1":{"registered":3}}}`
	if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, "queries.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rq := s2.ReplicatedQueries(); len(rq) != 1 || rq[0].Fence != fence {
		t.Fatalf("restored fences %+v, want q1 at %d", rq, fence)
	}
	waitLive(t, s2, "q1")
	if _, err := s2.Ingest(rel.Events()[logged:]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	ref, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Ingest(rel.Events()[:fence]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Ingest(rel.Events()[fence:]); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, got := infoLines(t, ref, "q1", 0), infoLines(t, s2, "q1", 0)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("resumed query served %d matches, a query registered at seq %d serves %d, or they differ", len(got), fence, len(want))
	}
}

// Replication manifests from leaders that kept an offset fence and a
// seq fence register the follower's query at the fence those leaders
// resumed at: the seq fence where one was written (cluster nodes), the
// offset fence otherwise and for a backfill, whose history began there.
func TestReplicatedQueryLegacyFences(t *testing.T) {
	s, err := server.New(server.Config{Schema: paperdata.Relation().Schema(), WALDir: t.TempDir(), WALFsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetReadOnly()
	cases := []struct {
		body string
		want int64
	}{
		{`"registered_at":5`, 5},
		{`"registered_at":5,"registered_seq":5`, 5},
		{`"registered_at":5,"registered_seq":9`, 9},
		{`"registered_at":5,"registered_seq":9,"backfill":true`, 5},
		{`"fence":4`, 4},
	}
	var body []string
	for i, tc := range cases {
		body = append(body, fmt.Sprintf(`{"spec":{"id":"q%d","query":%s},%s}`, i, jsonString(testSpecs[0].Query), tc.body))
	}
	var rqs []server.ReplicatedQuery
	if err := json.Unmarshal([]byte("["+strings.Join(body, ",")+"]"), &rqs); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncReplicatedQueries(rqs); err != nil {
		t.Fatal(err)
	}
	got := s.ReplicatedQueries()
	if len(got) != len(cases) {
		t.Fatalf("follower registered %d queries, want %d", len(got), len(cases))
	}
	for i, tc := range cases {
		if got[i].Fence != tc.want {
			t.Errorf("{%s}: follower fence %d, want %d", tc.body, got[i].Fence, tc.want)
		}
	}
}
