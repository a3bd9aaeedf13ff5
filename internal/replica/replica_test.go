package replica_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/replica"
	"repro/internal/server"
)

// testSpecs mirrors the serving tests: the paper's Q1 plus a PERMUTE
// companion, both over the chemotherapy schema.
var testSpecs = []server.QuerySpec{
	{ID: "q1", Query: paperdata.QueryQ1Text},
	{ID: "q2", Query: `
PATTERN PERMUTE(c, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B'
  AND c.ID = d.ID AND d.ID = b.ID
WITHIN 264h`, Filter: true},
}

// standaloneMatches evaluates one spec with the library's batch API —
// the golden output every replica must reproduce byte for byte.
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
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	return lines
}

// matchLines reads a query's retained match log as strings.
func matchLines(t *testing.T, s *server.Server, id string) []string {
	t.Helper()
	lines, err := s.Matches(id, 0)
	if err != nil {
		t.Fatalf("matches %s: %v", id, err)
	}
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	return out
}

// node is one server plus its HTTP front (API + replication routes),
// the same wiring cmd/sesd uses.
type node struct {
	srv *server.Server
	ts  *httptest.Server
	cfg server.Config
}

func startNode(t *testing.T, cfg server.Config, follower bool) *node {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if follower {
		s.SetReadOnly()
	}
	mux := http.NewServeMux()
	if s.WAL() != nil {
		sh, err := replica.NewShipper(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		mux.Handle("/replica/", sh)
	}
	mux.Handle("/", s.Handler())
	return &node{srv: s, ts: httptest.NewServer(mux), cfg: cfg}
}

// crash simulates process death: connections cut, nothing drained.
func (n *node) crash() {
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.srv.Close()
}

// pullerOpts returns fast-retry options against the given leader.
func pullerOpts(leaderURL string) replica.Options {
	return replica.Options{
		Leader:        leaderURL,
		WaitMS:        50,
		ManifestEvery: 20 * time.Millisecond,
		BatchSize:     64,
	}
}

// startPuller runs a puller until the returned stop function is
// called; the puller's Run error is returned by stop.
func startPuller(t *testing.T, srv *server.Server, opt replica.Options) (p *replica.Puller, stop func() error) {
	t.Helper()
	opt.Logf = t.Logf
	p, err := replica.NewPuller(srv, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = p.Run(ctx)
	}()
	return p, func() error {
		cancel()
		wg.Wait()
		if errors.Is(runErr, context.Canceled) {
			return nil
		}
		return runErr
	}
}

// waitFor polls until ok returns true or the deadline passes.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitLive waits until every test query has handed off to live
// fan-out on s.
func waitLive(t *testing.T, s *server.Server, ids ...string) {
	t.Helper()
	for _, id := range ids {
		id := id
		waitFor(t, "query "+id+" live", func() bool {
			info, err := s.Query(id)
			return err == nil && !info.CatchingUp
		})
	}
}

// prefixRelation builds a relation holding the first n events of rel.
func prefixRelation(t *testing.T, rel *event.Relation, n int) *event.Relation {
	t.Helper()
	out := event.NewRelation(rel.Schema())
	for _, e := range rel.Events()[:n] {
		if err := out.Append(e.Time, e.Attrs...); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestReplicationByteIdentity is the tentpole guarantee: a follower
// tailing the leader's WAL mid-stream converges to byte-identical
// match logs for every query, including one registered on the leader
// while replication is already running.
func TestReplicationByteIdentity(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2

	leader := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, false)
	defer leader.ts.Close()
	if _, err := leader.srv.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.srv.Ingest(rel.Events()[:half]); err != nil {
		t.Fatal(err)
	}

	follower := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, true)
	defer follower.ts.Close()
	p, stop := startPuller(t, follower.srv, pullerOpts(leader.ts.URL))

	// Register a second query while the follower is already tailing:
	// the manifest sync must pick it up with its fence.
	if _, err := leader.srv.AddQuery(testSpecs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.srv.Ingest(rel.Events()[half:]); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "follower caught up", func() bool {
		return follower.srv.WAL().NextOffset() == leader.srv.WAL().NextOffset() && p.Lag() == 0
	})
	waitFor(t, "follower queries registered", func() bool {
		return len(follower.srv.Queries()) == len(leader.srv.Queries())
	})
	if err := stop(); err != nil {
		t.Fatalf("puller: %v", err)
	}
	waitLive(t, follower.srv, "q1", "q2")
	if err := leader.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := follower.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// q1 saw the full stream on both nodes; q2 was fenced mid-stream at
	// the same offset on both, so both must equal the leader's log line
	// for line — and q1 also equals the standalone evaluation.
	if want := standaloneMatches(t, testSpecs[0], rel); len(want) == 0 {
		t.Fatal("standalone q1 produced no matches; test is vacuous")
	} else if got := matchLines(t, follower.srv, "q1"); !equalLines(got, want) {
		t.Fatalf("follower q1 diverged from standalone:\nfollower:   %d lines\nstandalone: %d lines", len(got), len(want))
	}
	for _, spec := range testSpecs {
		lgot, fgot := matchLines(t, leader.srv, spec.ID), matchLines(t, follower.srv, spec.ID)
		if !equalLines(fgot, lgot) {
			t.Fatalf("query %s: follower %d lines, leader %d lines; streams must be byte-identical",
				spec.ID, len(fgot), len(lgot))
		}
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFailoverPrefixIdentityAndFencing kills the leader mid-stream,
// promotes the follower at whatever offset replication had reached,
// and verifies the two fencing guarantees: the promoted follower's
// drained match streams are byte-identical to a single-node run over
// exactly the replicated prefix of the event log, and the revived old
// leader observes the higher epoch and refuses writes.
func TestFailoverPrefixIdentityAndFencing(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	leaderWAL, leaderCkpt := t.TempDir(), t.TempDir()

	leader := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: leaderWAL, CheckpointDir: leaderCkpt, WALFsync: "never",
	}, false)
	if _, err := leader.srv.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}

	follower := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, true)
	defer follower.ts.Close()
	_, stop := startPuller(t, follower.srv, pullerOpts(leader.ts.URL))

	// Feed the stream in small batches and kill the leader mid-flight,
	// at whatever point replication happens to have reached.
	events := rel.Events()
	for i := 0; i < len(events); i += 50 {
		end := i + 50
		if end > len(events) {
			end = len(events)
		}
		if _, err := leader.srv.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower received anything", func() bool {
		return follower.srv.WAL().NextOffset() > 0
	})
	leader.crash()
	stop() // puller errors are expected here: the leader is gone

	// Fenced promotion at whatever the follower managed to replicate.
	shipped := follower.srv.WAL().NextOffset()
	epoch, err := follower.srv.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 1 || follower.srv.Role() != "leader" {
		t.Fatalf("promoted to role %q epoch %d, want leader epoch 1", follower.srv.Role(), epoch)
	}
	waitLive(t, follower.srv, "q1")
	if err := follower.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Prefix identity: the promoted follower's drained q1 stream equals
	// a single node evaluating exactly the shipped prefix.
	want := standaloneMatches(t, testSpecs[0], prefixRelation(t, rel, int(shipped)))
	got := matchLines(t, follower.srv, "q1")
	if !equalLines(got, want) {
		t.Fatalf("promoted follower q1 over %d shipped events: %d lines, standalone prefix run: %d lines",
			shipped, len(got), len(want))
	}

	// The old leader revives over its own WAL, still at epoch 0. The
	// startup peer check observes the follower's epoch 1 and fences it:
	// every write is refused, so the log cannot fork.
	revived, err := server.New(server.Config{
		Schema: rel.Schema(), WALDir: leaderWAL, CheckpointDir: leaderCkpt, WALFsync: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	followerHTTP := httptest.NewServer(followerHandler(t, follower.srv))
	defer followerHTTP.Close()
	peerEpoch, ok := replica.CheckPeer(context.Background(), nil, followerHTTP.URL)
	if !ok || peerEpoch != 1 {
		t.Fatalf("CheckPeer = (%d, %v), want (1, true)", peerEpoch, ok)
	}
	revived.Fence(peerEpoch)
	if revived.Role() != "fenced" {
		t.Fatalf("revived leader role = %q, want fenced", revived.Role())
	}
	if _, err := revived.Ingest(events[:1]); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("revived leader Ingest = %v, want ErrFenced", err)
	}
	if _, err := revived.AddQuery(testSpecs[1]); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("revived leader AddQuery = %v, want ErrFenced", err)
	}
}

// followerHandler rebuilds the HTTP front for an already-running
// server (the node helper owns the original listener).
func followerHandler(t *testing.T, s *server.Server) http.Handler {
	t.Helper()
	mux := http.NewServeMux()
	if s.WAL() != nil {
		sh, err := replica.NewShipper(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		mux.Handle("/replica/", sh)
	}
	mux.Handle("/", s.Handler())
	return mux
}

// TestFollowerCrashResumesFromLastAppliedOffset kills the follower
// mid-catch-up and restarts it over the same directories: the new
// puller resumes from the local WAL tail (no re-seed, no gap) and
// converges to byte identity.
func TestFollowerCrashResumesFromLastAppliedOffset(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	leader := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, false)
	defer leader.ts.Close()
	if _, err := leader.srv.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.srv.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	leaderTail := leader.srv.WAL().NextOffset()

	fWAL, fCkpt := t.TempDir(), t.TempDir()
	fcfg := server.Config{Schema: rel.Schema(), WALDir: fWAL, CheckpointDir: fCkpt, WALFsync: "never"}
	follower := startNode(t, fcfg, true)
	opts := pullerOpts(leader.ts.URL)
	opts.BatchSize = 8 // small batches so the crash lands mid-catch-up
	// Throttle the segment stream to a few events per pause so the
	// catch-up is guaranteed to still be in flight when we crash it.
	opts.Client = &http.Client{Transport: &throttledTransport{chunk: 64, pause: 5 * time.Millisecond}}
	_, stop := startPuller(t, follower.srv, opts)

	waitFor(t, "follower mid-catch-up", func() bool {
		n := follower.srv.WAL().NextOffset()
		return n > 0 && n < leaderTail
	})
	stop()
	follower.crash()
	resumeFrom := mustReopenTail(t, fcfg)
	if resumeFrom <= 0 || resumeFrom >= leaderTail {
		t.Fatalf("crash landed at offset %d of %d; mid-catch-up crash did not happen", resumeFrom, leaderTail)
	}

	restarted := startNode(t, fcfg, true)
	defer restarted.ts.Close()
	if got := restarted.srv.WAL().NextOffset(); got < resumeFrom {
		t.Fatalf("restarted follower tail %d below pre-crash tail %d", got, resumeFrom)
	}
	_, stop2 := startPuller(t, restarted.srv, pullerOpts(leader.ts.URL))
	waitFor(t, "restarted follower caught up", func() bool {
		return restarted.srv.WAL().NextOffset() == leaderTail
	})
	if err := stop2(); err != nil {
		t.Fatalf("puller after restart: %v", err)
	}
	waitLive(t, restarted.srv, "q1")
	if err := leader.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := restarted.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := matchLines(t, restarted.srv, "q1"), matchLines(t, leader.srv, "q1"); !equalLines(got, want) {
		t.Fatalf("restarted follower q1: %d lines, leader: %d lines; must be byte-identical", len(got), len(want))
	}
}

// throttledTransport slows response bodies to small paced chunks so
// tests can observe (and interrupt) a catch-up in flight.
type throttledTransport struct {
	chunk int
	pause time.Duration
}

func (tt *throttledTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &throttledBody{inner: resp.Body, chunk: tt.chunk, pause: tt.pause}
	return resp, nil
}

type throttledBody struct {
	inner io.ReadCloser
	chunk int
	pause time.Duration
}

func (tb *throttledBody) Read(p []byte) (int, error) {
	if len(p) > tb.chunk {
		p = p[:tb.chunk]
	}
	time.Sleep(tb.pause)
	return tb.inner.Read(p)
}

func (tb *throttledBody) Close() error { return tb.inner.Close() }

// mustReopenTail reads the follower's durable tail the way a restart
// would, without keeping the server open.
func mustReopenTail(t *testing.T, cfg server.Config) int64 {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := s.WAL().NextOffset()
	s.Close()
	return tail
}

// TestAutoPromotionAfterLeaderTimeout verifies the health-check
// failover path: the leader dies, the puller retries with backoff,
// and past AutoPromoteAfter it promotes the follower and returns nil.
func TestAutoPromotionAfterLeaderTimeout(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	leader := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, false)
	if _, err := leader.srv.AddQuery(testSpecs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.srv.Ingest(rel.Events()[:100]); err != nil {
		t.Fatal(err)
	}

	follower := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
	}, true)
	defer follower.ts.Close()
	opts := pullerOpts(leader.ts.URL)
	opts.AutoPromoteAfter = 300 * time.Millisecond
	opts.Retry.Initial = 20 * time.Millisecond
	opts.Retry.Max = 50 * time.Millisecond
	opts.Logf = t.Logf
	p, err := replica.NewPuller(follower.srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	waitFor(t, "follower caught up", func() bool {
		return follower.srv.WAL().NextOffset() == leader.srv.WAL().NextOffset()
	})
	leader.crash()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after auto-promotion = %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("puller never auto-promoted")
	}
	if follower.srv.Role() != "leader" || follower.srv.Epoch() != 1 {
		t.Fatalf("after auto-promotion: role %q epoch %d, want leader epoch 1", follower.srv.Role(), follower.srv.Epoch())
	}
	// The new leader accepts writes immediately.
	if _, err := follower.srv.Ingest(rel.Events()[100:110]); err != nil {
		t.Fatalf("ingest after auto-promotion: %v", err)
	}
	follower.srv.Close()
}

// TestShipperRejectsDivergedAndGapped covers the two terminal
// protocol answers: a follower ahead of the leader gets 409, one
// behind the retention window gets 410.
func TestShipperRejectsDivergedAndGapped(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	leader := startNode(t, server.Config{
		Schema: rel.Schema(), WALDir: t.TempDir(), WALFsync: "never",
		WALSegmentBytes: 512, WALRetainBytes: 1500,
	}, false)
	defer leader.ts.Close()
	defer leader.srv.Close()
	events := rel.Events()
	for i := 0; i < len(events); i += 20 {
		end := i + 20
		if end > len(events) {
			end = len(events)
		}
		if _, err := leader.srv.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if leader.srv.WAL().FirstOffset() == 0 {
		t.Fatal("retention never reclaimed a segment; the 410 case is vacuous")
	}

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(leader.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	ahead := leader.srv.WAL().NextOffset() + 10
	if resp := get("/replica/wal?from=" + strconv.FormatInt(ahead, 10)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("from beyond the tail = %d, want 409", resp.StatusCode)
	}
	if resp := get("/replica/wal?from=0"); resp.StatusCode != http.StatusGone {
		t.Fatalf("from below the retained window = %d, want 410", resp.StatusCode)
	}
	if resp := get("/replica/manifest"); resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest = %d, want 200", resp.StatusCode)
	}
}
