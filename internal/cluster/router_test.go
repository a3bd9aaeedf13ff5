package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
)

// The query constrains every variable to one partition-key value, the
// shape the paper's partition-ordered semantics places: events of one
// key meet only each other, so per-partition evaluation loses nothing.
const clusterQuery = "PATTERN PERMUTE(c, d) THEN (b) WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B' AND c.ID = d.ID AND d.ID = b.ID WITHIN 40"

func clusterSchema() *event.Schema {
	return event.MustSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
		event.Field{Name: "V", Type: event.TypeFloat},
	)
}

// genStream builds a time-monotone random event stream, returned both
// as NDJSON ingest lines and as the equivalent relation (whose
// insertion-order sequence numbers equal the stream positions the
// router and a single node assign).
func genStream(t *testing.T, rng *rand.Rand, n int) ([]string, *event.Relation) {
	t.Helper()
	rel := event.NewRelation(clusterSchema())
	labels := []string{"C", "D", "B", "X"}
	lines := make([]string, 0, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(3))
		id := int64(rng.Intn(6))
		l := labels[rng.Intn(len(labels))]
		v := float64(rng.Intn(40)) * 0.25
		lines = append(lines, fmt.Sprintf(`{"time":%d,"attrs":{"ID":%d,"L":%q,"V":%s}}`,
			tm, id, l, strconv.FormatFloat(v, 'g', -1, 64)))
		if err := rel.Append(event.Time(tm), event.Int(id), event.String(l), event.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
	return lines, rel
}

// testNode is one in-process sesd node behind a fault-injection shim:
// refuse turns every request into a 503 fenced refusal, down aborts
// the connection (a transport error at the router). queryGets counts
// the GET /queries/{id} requests the node served.
type testNode struct {
	srv       *server.Server
	ts        *httptest.Server
	refuse    atomic.Bool
	down      atomic.Bool
	queryGets atomic.Int64
}

func (n *testNode) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutPrefix(r.URL.Path, "/queries/"); ok && r.Method == http.MethodGet && !strings.Contains(id, "/") {
			n.queryGets.Add(1)
		}
		if n.down.Load() {
			panic(http.ErrAbortHandler)
		}
		if n.refuse.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"server: fenced","state":"fenced"}`+"\n")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// testCluster is an nparts-partition cluster of in-process nodes with
// a router in front. With standbys, each partition's standby URL hits
// the same underlying server as its leader — a zero-lag warm standby,
// so failover exercises the router's retry/flip logic without running
// real WAL shipping (the CI cluster-failover job covers that with the
// actual binaries).
type testCluster struct {
	router   *cluster.Router
	rts      *httptest.Server
	leaders  []*testNode
	standbys []*testNode // nil entries without standbys
	reg      *obs.Registry
}

func startCluster(t *testing.T, nparts, slots int, withStandby bool) *testCluster {
	t.Helper()
	schema := clusterSchema()
	m := &cluster.Membership{Key: "ID", Slots: slots}
	tc := &testCluster{reg: obs.NewRegistry()}
	per := slots / nparts
	for p := 0; p < nparts; p++ {
		lo, hi := p*per, (p+1)*per
		if p == nparts-1 {
			hi = slots
		}
		part := cluster.Partition{ID: p, Lo: lo, Hi: hi}
		srv, err := server.New(server.Config{
			Schema:    schema,
			Ownership: part.Ownership("ID", slots),
		})
		if err != nil {
			t.Fatal(err)
		}
		leader := &testNode{srv: srv}
		leader.ts = httptest.NewServer(leader.wrap(srv.Handler()))
		t.Cleanup(leader.ts.Close)
		t.Cleanup(srv.Close)
		part.Leader = cluster.Node{URL: leader.ts.URL}
		tc.leaders = append(tc.leaders, leader)
		if withStandby {
			standby := &testNode{srv: srv}
			standby.ts = httptest.NewServer(standby.wrap(srv.Handler()))
			t.Cleanup(standby.ts.Close)
			part.Standby = cluster.Node{URL: standby.ts.URL}
			tc.standbys = append(tc.standbys, standby)
		} else {
			tc.standbys = append(tc.standbys, nil)
		}
		m.Partitions = append(m.Partitions, part)
	}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Membership: m,
		Schema:     schema,
		Registry:   tc.reg,
		Retry: resilience.RetryPolicy{
			Initial:     time.Millisecond,
			Max:         20 * time.Millisecond,
			MaxAttempts: 200,
		},
		HealthEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	tc.router = router
	tc.rts = httptest.NewServer(router.Handler())
	t.Cleanup(tc.rts.Close)
	return tc
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func registerQuery(t *testing.T, base, id, q string) {
	t.Helper()
	spec := fmt.Sprintf(`{"id":%q,"query":%q,"filter":true}`, id, q)
	resp := postJSON(t, base+"/queries", spec)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register on %s: %s: %s", base, resp.Status, raw)
	}
}

func ingestLines(t *testing.T, base string, lines []string) {
	t.Helper()
	resp := postJSON(t, base+"/events", strings.Join(lines, "\n")+"\n")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest on %s: %s: %s", base, resp.Status, raw)
	}
}

func readMatches(t *testing.T, base, id string, follow bool) []byte {
	t.Helper()
	u := fmt.Sprintf("%s/queries/%s/matches?follow=%t", base, id, follow)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matches on %s: %s: %s", base, resp.Status, raw)
	}
	return raw
}

// referenceMatches evaluates the query offline over the relation —
// what `sesmatch -json` prints — one rendered match line per entry.
func referenceMatches(t *testing.T, query string, rel *event.Relation) []byte {
	t.Helper()
	auto := compileQuery(t, query)
	matches, _, err := engine.Run(auto, rel, engine.WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, m := range matches {
		b, err := engine.MatchJSON(m, rel.Schema())
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// startSingle runs one whole-keyspace node over the same stream — the
// byte-identity reference the merged stream is measured against.
func startSingle(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{Schema: clusterSchema()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts.URL
}

func drainAll(t *testing.T, tc *testCluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range tc.leaders {
		if err := n.srv.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

// TestRouterMergedStreamIdentity is the tentpole property: across
// partition counts, the router's merged match stream is byte-identical
// to a single sesd node evaluating the whole stream, and both equal
// the offline evaluation.
func TestRouterMergedStreamIdentity(t *testing.T) {
	for _, nparts := range []int{1, 2, 4} {
		nparts := nparts
		t.Run(fmt.Sprintf("partitions=%d", nparts), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(77 + nparts)))
			lines, rel := genStream(t, rng, 400)

			single, singleURL := startSingle(t)
			registerQuery(t, singleURL, "q", clusterQuery)

			tc := startCluster(t, nparts, 16, false)
			registerQuery(t, tc.rts.URL, "q", clusterQuery)

			// Several batches, unevenly sized, so sub-batch splitting and
			// the in-order queues see more than one delivery.
			for off := 0; off < len(lines); {
				n := 1 + rng.Intn(120)
				if off+n > len(lines) {
					n = len(lines) - off
				}
				ingestLines(t, singleURL, lines[off:off+n])
				ingestLines(t, tc.rts.URL, lines[off:off+n])
				off += n
			}

			ctx := context.Background()
			if err := single.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			drainAll(t, tc)

			want := readMatches(t, singleURL, "q", false)
			got := readMatches(t, tc.rts.URL, "q", false)
			if !bytes.Equal(want, got) {
				t.Fatalf("merged stream differs from single node:\nsingle:\n%s\nmerged:\n%s", want, got)
			}
			if len(bytes.TrimSpace(want)) == 0 {
				t.Fatalf("degenerate dataset: no matches")
			}
			ref := referenceMatches(t, clusterQuery, rel)
			if !bytes.Equal(want, ref) {
				t.Fatalf("single node differs from offline evaluation:\nsingle:\n%s\noffline:\n%s", want, ref)
			}
		})
	}
}

// TestRouterFollowStreamIdentity attaches a follow-mode merged reader
// before any event arrives: live releases (gated by the partitions'
// ": clock" lines) plus the drain flush must reproduce the same stream.
func TestRouterFollowStreamIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lines, _ := genStream(t, rng, 300)

	single, singleURL := startSingle(t)
	registerQuery(t, singleURL, "q", clusterQuery)

	tc := startCluster(t, 2, 16, false)
	registerQuery(t, tc.rts.URL, "q", clusterQuery)

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(tc.rts.URL + "/queries/q/matches?follow=1")
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- result{raw, err}
	}()

	for off := 0; off < len(lines); {
		n := 1 + rng.Intn(60)
		if off+n > len(lines) {
			n = len(lines) - off
		}
		ingestLines(t, singleURL, lines[off:off+n])
		ingestLines(t, tc.rts.URL, lines[off:off+n])
		off += n
	}
	time.Sleep(200 * time.Millisecond) // let live releases happen while streams are open

	ctx := context.Background()
	if err := single.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	drainAll(t, tc)

	res := <-done
	if res.err != nil {
		t.Fatalf("follow stream: %v", res.err)
	}
	want := readMatches(t, singleURL, "q", false)
	if !bytes.Equal(want, res.body) {
		t.Fatalf("follow-mode merged stream differs from single node:\nsingle:\n%s\nmerged:\n%s", want, res.body)
	}
	if len(bytes.TrimSpace(want)) == 0 {
		t.Fatalf("degenerate dataset: no matches")
	}
}

// TestRouterFailover kills a leader mid-stream (transport aborts) and
// fences the other a batch later: ingest must fail over to the
// standbys, the follow-mode merged stream must survive the reader
// reconnects, and the final bytes must equal the single-node stream.
func TestRouterFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lines, _ := genStream(t, rng, 300)

	single, singleURL := startSingle(t)
	registerQuery(t, singleURL, "q", clusterQuery)

	tc := startCluster(t, 2, 16, true)
	registerQuery(t, tc.rts.URL, "q", clusterQuery)

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(tc.rts.URL + "/queries/q/matches?follow=1")
		if err != nil {
			done <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- result{raw, err}
	}()

	third := len(lines) / 3
	ingestLines(t, singleURL, lines[:third])
	ingestLines(t, tc.rts.URL, lines[:third])

	// Partition 0's leader dies (connections abort); partition 1's
	// leader is fenced by a newer epoch. Both must fail over.
	tc.leaders[0].down.Store(true)
	tc.leaders[1].refuse.Store(true)

	ingestLines(t, singleURL, lines[third:2*third])
	ingestLines(t, tc.rts.URL, lines[third:2*third])
	ingestLines(t, singleURL, lines[2*third:])
	ingestLines(t, tc.rts.URL, lines[2*third:])

	// The health prober may switch a partition before any delivery
	// fails, so retries can stay 0; the switch itself is always counted.
	if v, ok := tc.reg.Value("ses_router_failovers_total"); !ok || v < 2 {
		t.Errorf("ses_router_failovers_total = %d, %t; want >= 2 (both partitions switched)", v, ok)
	}

	ctx := context.Background()
	if err := single.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	drainAll(t, tc)

	res := <-done
	if res.err != nil {
		t.Fatalf("follow stream: %v", res.err)
	}
	want := readMatches(t, singleURL, "q", false)
	if !bytes.Equal(want, res.body) {
		t.Fatalf("post-failover merged stream differs from single node:\nsingle:\n%s\nmerged:\n%s", want, res.body)
	}
	if len(bytes.TrimSpace(want)) == 0 {
		t.Fatalf("degenerate dataset: no matches")
	}
}

// TestRouterRetryDedupe replays the ambiguous-failure case: the node
// ingests a sub-batch but the router never sees the acknowledgment.
// The retried delivery must be dropped by the node's sequence dedupe,
// not double-ingested.
func TestRouterRetryDedupe(t *testing.T) {
	schema := clusterSchema()
	own := &cluster.Ownership{Key: "ID", Slots: 8, Lo: 0, Hi: 8}
	srv, err := server.New(server.Config{Schema: schema, Ownership: own})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	var failedOnce atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/events" && !failedOnce.Swap(true) {
			// Deliver the batch, then report a gateway failure: the
			// router cannot know whether it landed.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("shadow delivery failed: %d %s", rec.Code, rec.Body)
			}
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	m := &cluster.Membership{Key: "ID", Slots: 8, Partitions: []cluster.Partition{
		{ID: 0, Lo: 0, Hi: 8, Leader: cluster.Node{URL: ts.URL}},
	}}
	reg := obs.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Membership: m,
		Schema:     schema,
		Retry:      resilience.RetryPolicy{Initial: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 10},
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)

	rng := rand.New(rand.NewSource(3))
	lines, _ := genStream(t, rng, 20)
	res, err := router.IngestNDJSON([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatalf("IngestNDJSON: %v", err)
	}
	if res.Ingested+res.Deduped != len(lines) {
		t.Fatalf("ingested %d + deduped %d != %d events", res.Ingested, res.Deduped, len(lines))
	}
	if res.Deduped != len(lines) {
		t.Errorf("deduped %d, want the whole retried batch (%d)", res.Deduped, len(lines))
	}
	if got := srv.LastSeq(); got != int64(len(lines)-1) {
		t.Errorf("node LastSeq = %d, want %d", got, len(lines)-1)
	}
	if got := srv.Deduped(); got != int64(len(lines)) {
		t.Errorf("node Deduped = %d, want %d", got, len(lines))
	}
	if v, ok := reg.Value("ses_router_partition_retries_total"); !ok || v == 0 {
		t.Errorf("ses_router_partition_retries_total = %d, %t; want > 0 after the forced retry", v, ok)
	}
}

// TestRouterRejectsPreSequencedLines pins that clients cannot inject
// global sequence numbers past the router.
func TestRouterRejectsPreSequencedLines(t *testing.T) {
	tc := startCluster(t, 1, 4, false)
	_, err := tc.router.IngestNDJSON([]byte(`{"seq":3,"time":1,"attrs":{"ID":1,"L":"C","V":0}}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "assigned by the router") {
		t.Fatalf("pre-sequenced line accepted: %v", err)
	}
}

// TestRouterMisdirectedIsPermanent pins that a topology mismatch (node
// owns a different slice than the membership says) fails fast instead
// of burning the whole retry budget.
func TestRouterMisdirectedIsPermanent(t *testing.T) {
	schema := clusterSchema()
	// The node owns only slot range [0,1) of 8; the membership claims
	// it owns everything, so most events land outside its slice.
	srv, err := server.New(server.Config{Schema: schema,
		Ownership: &cluster.Ownership{Key: "ID", Slots: 8, Lo: 0, Hi: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	m := &cluster.Membership{Key: "ID", Slots: 8, Partitions: []cluster.Partition{
		{ID: 0, Lo: 0, Hi: 8, Leader: cluster.Node{URL: ts.URL}},
	}}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Membership: m,
		Schema:     schema,
		Retry:      resilience.RetryPolicy{Initial: time.Millisecond, Max: 2 * time.Millisecond, MaxAttempts: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)

	rng := rand.New(rand.NewSource(5))
	lines, _ := genStream(t, rng, 40)
	start := time.Now()
	_, err = router.IngestNDJSON([]byte(strings.Join(lines, "\n") + "\n"))
	if err == nil {
		t.Fatal("misdirected batch accepted")
	}
	if !strings.Contains(err.Error(), "Misdirected") {
		t.Fatalf("error does not surface the 421: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("misdirected delivery retried for %s; 421 must be permanent", d)
	}
}

// TestRouterMergedStats pins the distributed aggregate path: per-node
// fold documents merge into one stats document whose groups carry the
// cross-partition totals, with HAVING applied after the merge.
func TestRouterMergedStats(t *testing.T) {
	const aggQuery = "PATTERN (b) WHERE b.L = 'B' WITHIN 5 AGGREGATE count, sum(b.V), avg(b.V) PER PARTITION ID HAVING count >= 1"
	rng := rand.New(rand.NewSource(11))
	lines, _ := genStream(t, rng, 200)

	single, singleURL := startSingle(t)
	registerQuery(t, singleURL, "agg", aggQuery)
	tc := startCluster(t, 2, 16, false)
	registerQuery(t, tc.rts.URL, "agg", aggQuery)

	ingestLines(t, singleURL, lines)
	ingestLines(t, tc.rts.URL, lines)
	ctx := context.Background()
	if err := single.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	drainAll(t, tc)

	fetch := func(base string) map[string]string {
		resp, err := http.Get(base + "/queries/agg/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats on %s: %s: %s", base, resp.Status, raw)
		}
		// Group order may differ (single node folds in stream order, the
		// merge appends in partition order) and only the merged form
		// omits the per-group fold version, so compare the rendered
		// values by group key.
		var doc struct {
			Groups []struct {
				Key    json.RawMessage `json:"key"`
				Values json.RawMessage `json:"values"`
			} `json:"groups"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("stats on %s does not parse: %v\n%s", base, err, raw)
		}
		groups := map[string]string{}
		for _, g := range doc.Groups {
			groups[string(g.Key)] = string(g.Values)
		}
		return groups
	}
	want, got := fetch(singleURL), fetch(tc.rts.URL)
	if len(want) == 0 {
		t.Fatal("degenerate dataset: no aggregate groups")
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %s: merged %s, single %s", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("merged has %d groups, single has %d", len(got), len(want))
	}
}

// TestRouterMergedStatsErrors: the router compiles the merge plan from
// the query text its partitions report, so partitions that registered
// one id with different AGGREGATE clauses fail the merge with an error
// naming the disagreement instead of rendering a blend; and a query
// without an AGGREGATE clause gets the node's own 400 through the
// router.
func TestRouterMergedStatsErrors(t *testing.T) {
	tc := startCluster(t, 2, 16, false)
	texts := []string{
		"PATTERN (b) WHERE b.L = 'B' WITHIN 5 AGGREGATE count PER PARTITION ID",
		"PATTERN (b) WHERE b.L = 'B' WITHIN 5 AGGREGATE count PER PARTITION ID HAVING count >= 2",
	}
	for i, n := range tc.leaders {
		if _, err := n.srv.AddQuery(server.QuerySpec{ID: "agg", Query: texts[i]}); err != nil {
			t.Fatal(err)
		}
	}
	registerQuery(t, tc.rts.URL, "plain", "PATTERN (b) WHERE b.L = 'B' WITHIN 5")
	get := func(path string) (int, string) {
		resp, err := http.Get(tc.rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	status, body := get("/queries/agg/stats")
	if status == http.StatusOK || !strings.Contains(body, "disagree") {
		t.Errorf("stats over disagreeing partitions: %d %s, want an error naming the disagreement", status, body)
	}
	status, body = get("/queries/plain/stats")
	if status != http.StatusBadRequest || !strings.Contains(body, "has no AGGREGATE clause") {
		t.Errorf("stats of a non-aggregate query: %d %s, want the node's 400", status, body)
	}
}

func compileQuery(t *testing.T, q string) *automaton.Automaton {
	t.Helper()
	auto, _, err := engine.CompileQuery(q, clusterSchema())
	if err != nil {
		t.Fatal(err)
	}
	return auto
}

// TestRouterIngestBodyTooLarge: the router refuses an oversized POST
// /events body whole with 413 and a JSON error — a truncating reader
// would acknowledge a prefix cut on a line boundary and lose the tail
// — and assigns no sequence number to any of it.
func TestRouterIngestBodyTooLarge(t *testing.T) {
	tc := startCluster(t, 2, 16, false)
	lines, _ := genStream(t, rand.New(rand.NewSource(5)), 40)
	body := strings.Join(lines, "\n") + "\n"
	prefix := strings.Join(lines[:10], "\n") + "\n"
	tc.router.SetMaxIngestBodyForTest(int64(len(prefix)))

	resp := postJSON(t, tc.rts.URL+"/events", body)
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || doc["error"] == "" {
		t.Fatalf("oversized POST /events = %d %v, want 413 with an error", resp.StatusCode, doc)
	}
	if seq := tc.router.NextSeq(); seq != 0 {
		t.Fatalf("rejected body consumed sequence numbers: next seq %d", seq)
	}
	for _, n := range tc.leaders {
		if last := n.srv.LastSeq(); last != -1 {
			t.Fatalf("rejected body reached a node: last seq %d", last)
		}
	}
	// A body within the cap (stamp headroom included) still routes.
	ingestLines(t, tc.rts.URL, lines[:2])
	if seq := tc.router.NextSeq(); seq != 2 {
		t.Fatalf("next seq after a 2-line batch = %d", seq)
	}
}
