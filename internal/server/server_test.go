package server_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/server"
)

// The three queries used throughout the serving tests: the paper's
// running example Q1 plus two structurally distinct companions over
// the same chemotherapy schema.
var testSpecs = []server.QuerySpec{
	{ID: "q1", Query: paperdata.QueryQ1Text},
	{ID: "q2", Query: `
PATTERN PERMUTE(c, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B'
  AND c.ID = d.ID AND d.ID = b.ID
WITHIN 264h`, Filter: true},
	{ID: "q3", Query: `
PATTERN PERMUTE(p+) THEN (b)
WHERE p.L = 'P' AND b.L = 'B' AND p.ID = b.ID
WITHIN 264h`},
}

// standaloneMatches evaluates one spec's query with the library's
// batch API and returns the encoded match lines — the golden output
// the serving layer must reproduce byte for byte.
func standaloneMatches(t *testing.T, spec server.QuerySpec, rel *event.Relation) []string {
	t.Helper()
	q, err := ses.Compile(spec.Query, rel.Schema())
	if err != nil {
		t.Fatalf("compile %s: %v", spec.ID, err)
	}
	matches, _, err := q.Match(rel, ses.WithFilter(spec.Filter))
	if err != nil {
		t.Fatalf("match %s: %v", spec.ID, err)
	}
	lines := make([]string, len(matches))
	for i, m := range matches {
		b, err := ses.MatchJSON(m, rel.Schema())
		if err != nil {
			t.Fatalf("encode %s: %v", spec.ID, err)
		}
		lines[i] = string(b)
	}
	return lines
}

// shiftSeq rewrites the "seq" fields of encoded match lines by delta.
// Served matches number events by global stream position, so a
// standalone expectation computed over a stream suffix must be shifted
// by the suffix's start offset before comparing bytes.
func shiftSeq(lines []string, delta int) []string {
	re := regexp.MustCompile(`"seq":(\d+)`)
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = re.ReplaceAllStringFunc(l, func(m string) string {
			n, _ := strconv.Atoi(strings.TrimPrefix(m, `"seq":`))
			return `"seq":` + strconv.Itoa(n+delta)
		})
	}
	return out
}

// infoLines reads a query's retained match log as strings.
func infoLines(t *testing.T, s *server.Server, id string, from int64) []string {
	t.Helper()
	lines, err := s.Matches(id, from)
	if err != nil {
		t.Fatalf("matches %s: %v", id, err)
	}
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	return out
}

func TestServerMultiQueryByteIdentity(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs {
		info, err := s.AddQuery(spec)
		if err != nil {
			t.Fatalf("AddQuery(%s): %v", spec.ID, err)
		}
		if info.Fingerprint == "" || info.States == 0 {
			t.Fatalf("AddQuery(%s) info = %+v, want fingerprint and states", spec.ID, info)
		}
	}
	if n, err := s.Ingest(rel.Events()); err != nil || n != rel.Len() {
		t.Fatalf("Ingest = %d, %v, want %d, nil", n, err, rel.Len())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, spec := range testSpecs {
		want := standaloneMatches(t, spec, rel)
		got := infoLines(t, s, spec.ID, 0)
		if len(got) != len(want) {
			t.Fatalf("query %s: served %d matches, standalone %d\nserved: %v\nstandalone: %v",
				spec.ID, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("query %s match %d:\nserved:     %s\nstandalone: %s", spec.ID, i, got[i], want[i])
			}
		}
		info, err := s.Query(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		// The routing index delivers each query a sub-stream: the events
		// counter covers what was routed, never more than the stream.
		if !info.Done || info.Matches != int64(len(want)) ||
			info.Events == 0 || info.Events > int64(rel.Len()) {
			t.Errorf("query %s info = %+v, want done with %d matches over at most %d events", spec.ID, info, len(want), rel.Len())
		}
	}
}

// keyedLines evaluates a query with the library's keyed runner over
// the whole relation and returns the encoded match lines in emission
// order — the golden output a keyed served query must reproduce.
func keyedLines(t *testing.T, query, key string, rel *event.Relation, opts ...ses.Option) []string {
	t.Helper()
	q, err := ses.Compile(query, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	r, err := q.KeyedRunner(key, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	emit := func(ms []ses.Match) {
		for _, m := range ms {
			b, err := ses.MatchJSON(m, rel.Schema())
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
	}
	for i := 0; i < rel.Len(); i++ {
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		emit(ms)
	}
	emit(r.Flush())
	return lines
}

// TestServerShardedQuery: a keyed query (its runner's state sharded by
// ID) serves the library keyed runner's match lines byte for byte, in
// order; their multiset is partitioned evaluation's. It reports no
// processed_through.
func TestServerShardedQuery(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	spec := server.QuerySpec{ID: "q3-keyed", Query: testSpecs[2].Query, Key: "ID"}
	if _, err := s.AddQuery(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Query(spec.ID); err != nil || info.ProcessedThrough != nil {
		t.Fatalf("keyed query info = %+v (err %v), want no processed_through", info, err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := infoLines(t, s, spec.ID, 0)
	want := keyedLines(t, spec.Query, "ID", rel)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("keyed query served %d matches, library keyed runner %d, or they differ", len(got), len(want))
	}

	q, err := ses.Compile(spec.Query, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := q.MatchPartitioned(rel, "ID")
	if err != nil {
		t.Fatal(err)
	}
	part := make([]string, len(matches))
	for i, m := range matches {
		b, err := ses.MatchJSON(m, rel.Schema())
		if err != nil {
			t.Fatal(err)
		}
		part[i] = string(b)
	}
	sort.Strings(part)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(part, "\n") {
		t.Errorf("keyed match multiset differs from MatchPartitioned's (%d vs %d)", len(got), len(part))
	}
}

func TestServerDuplicateAndUnknown(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	// Same id.
	if _, err := s.AddQuery(server.QuerySpec{ID: "q1", Query: testSpecs[1].Query}); !errors.Is(err, server.ErrDuplicate) {
		t.Fatalf("duplicate id error = %v, want ErrDuplicate", err)
	}
	// Different id, same automaton (whitespace-only change): accepted,
	// sharing one compiled instance under both ids.
	dup := server.QuerySpec{ID: "q1-copy", Query: strings.ReplaceAll(paperdata.QueryQ1Text, "\n", " ")}
	dupInfo, err := s.AddQuery(dup)
	if err != nil {
		t.Fatalf("duplicate fingerprint registration: %v", err)
	}
	orig, err := s.Query("q1")
	if err != nil {
		t.Fatal(err)
	}
	if dupInfo.Fingerprint != orig.Fingerprint {
		t.Fatalf("shared registration fingerprint = %s, want %s", dupInfo.Fingerprint, orig.Fingerprint)
	}
	if _, err := s.Query("nope"); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("unknown query error = %v, want ErrNotFound", err)
	}
	if err := s.RemoveQuery("nope"); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("remove unknown error = %v, want ErrNotFound", err)
	}
	// Bad specs.
	for _, spec := range []server.QuerySpec{
		{ID: "bad id!", Query: paperdata.QueryQ1Text},
		{ID: "noquery"},
		{ID: "badpol", Query: testSpecs[1].Query, Policy: "panic"},
		{ID: "badkey", Query: testSpecs[1].Query, Key: "Nope"},
		{ID: "badsyntax", Query: "PATTERN"},
	} {
		if _, err := s.AddQuery(spec); err == nil {
			t.Errorf("AddQuery(%q) succeeded, want error", spec.ID)
		}
	}
}

func TestServerRemoveRetiresMetrics(t *testing.T) {
	rel := paperdata.Relation()
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `query="q1"`) {
		t.Fatalf("registry lacks per-query series:\n%s", b.String())
	}
	if err := s.RemoveQuery("q1"); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `query="q1"`) {
		t.Fatalf("removed query's series still exposed:\n%s", b.String())
	}
	// The freed fingerprint and id are reusable.
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatalf("re-adding removed query: %v", err)
	}
}

func TestServerShedsAfterPipelineFailure(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One simultaneous instance with the Fail policy: the second start
	// instance is a deterministic terminal error the supervisor does
	// not retry.
	spec := server.QuerySpec{
		ID: "fragile", Query: `
PATTERN PERMUTE(b1) THEN (b2)
WHERE b1.L = 'B' AND b2.L = 'B'
WITHIN 264h`,
		MaxInstances: 1, Policy: "fail",
	}
	if _, err := s.AddQuery(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := s.Query("fragile")
		if err != nil {
			t.Fatal(err)
		}
		if info.Done {
			if info.Err == "" {
				t.Fatalf("failed pipeline reported no error: %+v", info)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not terminate: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Post-failure ingest sheds instead of blocking.
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		if _, err := s.Ingest(rel.Events()); err != nil {
			t.Errorf("post-failure ingest: %v", err)
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked on a terminated pipeline")
	}
	info, err := s.Query("fragile")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shed == 0 {
		t.Fatalf("no events shed after pipeline failure: %+v", info)
	}
}

func TestServerDrainRejectsFurtherWork(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(rel.Events()); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("post-drain ingest error = %v, want ErrDraining", err)
	}
	if _, err := s.AddQuery(testSpecs[1]); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("post-drain AddQuery error = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestServerManifestResume(t *testing.T) {
	rel := paperdata.Relation()
	dir := t.TempDir()
	cfg := server.Config{Schema: rel.Schema(), CheckpointDir: dir}

	s1, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs[:2] {
		if _, err := s1.AddQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drain persisted the manifest and per-query checkpoints.
	for _, f := range []string{"queries.json", "q1.ckpt", "q2.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("restarting over checkpoint dir: %v", err)
	}
	defer s2.Close()
	infos := s2.Queries()
	if len(infos) != 2 {
		t.Fatalf("restored %d queries, want 2: %+v", len(infos), infos)
	}
	for i, spec := range testSpecs[:2] {
		if infos[i].ID != spec.ID || infos[i].Query != spec.Query {
			t.Errorf("restored query %d = %+v, want spec %+v", i, infos[i], spec)
		}
	}
	// The restored server is operational: it accepts ingest and drains
	// cleanly from the resumed checkpoints.
	if _, err := s2.Ingest(rel.Events()[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIngestLeavesCallerSlice: Ingest's contract lets callers retain
// and reuse their slice, so the sequence numbers dispatch stamps in
// place must land on the server's copy (only the HTTP handler hands its
// freshly decoded batch over uncopied).
func TestIngestLeavesCallerSlice(t *testing.T) {
	rel := paperdata.Relation()
	s, err := server.New(server.Config{Schema: rel.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := make([]event.Event, rel.Len())
	for i := range batch {
		batch[i] = *rel.Event(i)
		batch[i].Seq = -7
	}
	for round := 0; round < 2; round++ {
		if n, err := s.Ingest(batch); err != nil || n != len(batch) {
			t.Fatalf("Ingest = %d, %v", n, err)
		}
		for i := range batch {
			if batch[i].Seq != -7 {
				t.Fatalf("round %d: Ingest stamped the caller's event %d with seq %d", round, i, batch[i].Seq)
			}
		}
	}
}
