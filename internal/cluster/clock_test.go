package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
)

// lineFollower reads an NDJSON follow stream into a buffer that the
// test can inspect while the stream is still open.
type lineFollower struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	done chan error
}

// followLines follows url in the background. The follow ends with the
// test, so a failing test's cleanup does not wait forever on the open
// stream when it closes the servers.
func followLines(t *testing.T, url string) *lineFollower {
	f := &lineFollower{done: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// A router sends its headers with the first released line, so
		// the request itself may block until then.
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			f.done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.done <- fmt.Errorf("follow %s: %s", url, resp.Status)
			return
		}
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadBytes('\n')
			f.mu.Lock()
			f.buf.Write(line)
			f.mu.Unlock()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				f.done <- err
				return
			}
		}
	}()
	return f
}

func (f *lineFollower) bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return bytes.Clone(f.buf.Bytes())
}

// TestRouterFollowReleasesOnClock: a merged follower attached before
// any ingest receives every match live, before any drain, although
// one partition receives events but never matches — its stream clock
// alone proves it quiet. The release asks the nodes nothing: the only
// GET /queries/{id} they serve is the merge's window lookup.
func TestRouterFollowReleasesOnClock(t *testing.T) {
	const window = 40 // clusterQuery's WITHIN
	tc := startCluster(t, 2, 16, false)
	registerQuery(t, tc.rts.URL, "q", clusterQuery)
	single, singleURL := startSingle(t)
	registerQuery(t, singleURL, "q", clusterQuery)

	// IDs by partition (slots [0,8) and [8,16)). Partition 1 sees only
	// C and D events: they reach its query and advance its clock, but
	// without a B nothing there ever matches.
	var ids [2][]int64
	for id := int64(0); id < 32; id++ {
		p := cluster.SlotOf(event.Int(id), 16) / 8
		ids[p] = append(ids[p], id)
	}
	if len(ids[0]) == 0 || len(ids[1]) == 0 {
		t.Fatalf("degenerate key split: %v", ids)
	}
	rng := rand.New(rand.NewSource(11))
	rel := event.NewRelation(clusterSchema())
	var lines []string
	tm := int64(0)
	add := func(id int64, l string) {
		lines = append(lines, fmt.Sprintf(`{"time":%d,"attrs":{"ID":%d,"L":%q,"V":0}}`, tm, id, l))
		if err := rel.Append(event.Time(tm), event.Int(id), event.String(l), event.Float(0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		tm += int64(rng.Intn(3))
		if p := rng.Intn(2); p == 0 {
			add(ids[0][rng.Intn(len(ids[0]))], []string{"C", "D", "B", "X"}[rng.Intn(4)])
		} else {
			add(ids[1][rng.Intn(len(ids[1]))], []string{"C", "D"}[rng.Intn(2)])
		}
	}
	// One trailing event per partition past every horizon closes every
	// window on both nodes. A C starts an instance but completes none.
	tm += window + 1
	add(ids[0][0], "C")
	add(ids[1][0], "C")
	want := referenceMatches(t, clusterQuery, rel)
	if len(bytes.TrimSpace(want)) == 0 {
		t.Fatal("degenerate dataset: no matches")
	}

	for _, n := range tc.leaders {
		n.queryGets.Store(0)
	}
	queryGets := func() int64 {
		var n int64
		for _, l := range tc.leaders {
			n += l.queryGets.Load()
		}
		return n
	}
	fol := followLines(t, tc.rts.URL+"/queries/q/matches?follow=1")
	// The merge's window lookup shows the follower attached.
	for attach := time.Now().Add(10 * time.Second); queryGets() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(attach) {
			t.Fatal("merged follower did not attach")
		}
	}
	for off := 0; off < len(lines); {
		n := min(1+rng.Intn(40), len(lines)-off)
		ingestLines(t, tc.rts.URL, lines[off:off+n])
		ingestLines(t, singleURL, lines[off:off+n])
		off += n
	}

	deadline := time.Now().Add(10 * time.Second)
	for !bytes.Equal(fol.bytes(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("merged follower before drain holds:\n%s\nwant every match:\n%s", fol.bytes(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The single node's pipeline steps its last events after their POST
	// returned, so its log can trail the merged follower for a moment.
	for got := readMatches(t, singleURL, "q", false); !bytes.Equal(got, want); got = readMatches(t, singleURL, "q", false) {
		if time.Now().After(deadline) {
			t.Fatalf("single node before drain holds:\n%s\nwant:\n%s", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gets := queryGets(); gets != 1 {
		t.Errorf("nodes served %d GET /queries/{id}, want 1 (the window lookup)", gets)
	}

	if err := single.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	drainAll(t, tc)
	select {
	case err := <-fol.done:
		if err != nil {
			t.Fatalf("follow stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merged follower did not end after drain")
	}
	if got := fol.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("merged follower after drain:\n%s\nwant:\n%s", got, want)
	}
}

// TestRouterFollowOverlongLine: a match line longer than the merge
// reads is a terminal error naming the partition and offset. Every
// node of the partition would serve the same line, so reconnecting
// cannot help and must not be tried in a loop.
func TestRouterFollowOverlongLine(t *testing.T) {
	schema := clusterSchema()
	own := &cluster.Ownership{Key: "ID", Slots: 8, Lo: 0, Hi: 8}
	srv, err := server.New(server.Config{Schema: schema, Ownership: own})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.AddQuery(server.QuerySpec{ID: "q", Query: clusterQuery}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	huge := "id: 0\ndata: {\"first\":0,\"pad\":\"" + strings.Repeat("x", 5<<20) + "\"}\n\n"
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/queries/q/matches" {
			conns.Add(1)
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, huge)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	m := &cluster.Membership{Key: "ID", Slots: 8, Partitions: []cluster.Partition{
		{ID: 0, Lo: 0, Hi: 8, Leader: cluster.Node{URL: ts.URL}},
	}}
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Membership: m,
		Schema:     schema,
		Retry:      resilience.RetryPolicy{Initial: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 10},
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = router.StreamMatches(ctx, "q", 0, true, func(int64, []byte) error {
		t.Error("an over-long line was released")
		return nil
	})
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("StreamMatches = %v, want a bufio.ErrTooLong error", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "partition 0") || !strings.Contains(msg, "offset 0") {
		t.Errorf("error %q does not name the partition and the offset", msg)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("node saw %d match stream connections, want 1", n)
	}
}

// sseItem is one line of interest in a node's SSE match stream: a
// match's window start, or a clock punctuation.
type sseItem struct {
	clock bool
	t     int64 // the clock, or the match's window start
}

// openSSE opens an SSE match stream; it returns once the node has
// sent the response headers.
func openSSE(t *testing.T, url string) io.ReadCloser {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return resp.Body
}

// scanSSE reads an SSE match stream to its end event (or EOF) and
// closes it.
func scanSSE(body io.ReadCloser) ([]sseItem, error) {
	defer body.Close()
	var items []sseItem
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	ev := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": clock "):
			c, err := strconv.ParseInt(strings.TrimPrefix(line, ": clock "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad clock line %q: %v", line, err)
			}
			items = append(items, sseItem{clock: true, t: c})
		case strings.HasPrefix(line, ":"):
			return nil, fmt.Errorf("unexpected comment line %q", line)
		case strings.HasPrefix(line, "event: "):
			ev = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if ev == "end" {
				return items, nil
			}
			var m struct {
				First int64 `json:"first"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &m); err != nil {
				return nil, err
			}
			items = append(items, sseItem{t: m.First})
		}
	}
	return items, sc.Err()
}

func countClocks(items []sseItem) int {
	n := 0
	for _, it := range items {
		if it.clock {
			n++
		}
	}
	return n
}

// TestNodeClockPunctuation: in a node's SSE follow, no match line
// after ": clock T" closes its window below T (first + WITHIN < T),
// over random streams. follow=0 reads, NDJSON follows and a keyed
// query's follow carry no clock line.
func TestNodeClockPunctuation(t *testing.T) {
	const window = 40 // clusterQuery's WITHIN
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lines, rel := genStream(t, rng, 400)
			srv, err := server.New(server.Config{Schema: clusterSchema()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			t.Cleanup(srv.Close)
			registerQuery(t, ts.URL, "q", clusterQuery)
			resp := postJSON(t, ts.URL+"/queries", fmt.Sprintf(`{"id":"kk","query":%q,"key":"ID"}`, clusterQuery))
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("register keyed query: %s", resp.Status)
			}

			type result struct {
				items []sseItem
				err   error
			}
			scan := func(body io.ReadCloser) <-chan result {
				c := make(chan result, 1)
				go func() {
					items, err := scanSSE(body)
					c <- result{items, err}
				}()
				return c
			}
			// Two SSE followers of q share the supervisor's Progress channel.
			sseCs := []<-chan result{
				scan(openSSE(t, ts.URL+"/queries/q/matches?follow=1")),
				scan(openSSE(t, ts.URL+"/queries/q/matches?follow=1")),
			}
			keyedC := scan(openSSE(t, ts.URL+"/queries/kk/matches?follow=1"))
			nd := followLines(t, ts.URL+"/queries/q/matches?follow=1")

			var mid []sseItem
			for off := 0; off < len(lines); {
				n := min(1+rng.Intn(30), len(lines)-off)
				ingestLines(t, ts.URL, lines[off:off+n])
				off += n
				if mid == nil && off > len(lines)/2 {
					if mid, err = scanSSE(openSSE(t, ts.URL+"/queries/q/matches?follow=0")); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			kres := <-keyedC
			if kres.err != nil {
				t.Fatalf("keyed SSE follow: %v", kres.err)
			}
			if err := <-nd.done; err != nil {
				t.Fatal(err)
			}
			want := bytes.Count(referenceMatches(t, clusterQuery, rel), []byte("\n"))
			for _, c := range sseCs {
				res := <-c
				if res.err != nil {
					t.Fatalf("SSE follow: %v", res.err)
				}
				clock, live, matches := int64(math.MinInt64), 0, 0
				for _, it := range res.items {
					if it.clock {
						if it.t <= clock {
							t.Fatalf("clock %d after clock %d: clocks must rise", it.t, clock)
						}
						clock = it.t
						if clock != math.MaxInt64 {
							live++
						}
						continue
					}
					matches++
					if it.t+window < clock {
						t.Fatalf("match with window start %d after clock %d: first + %d < clock", it.t, clock, window)
					}
				}
				if matches != want {
					t.Fatalf("SSE follow carried %d matches, want %d", matches, want)
				}
				if live == 0 {
					t.Fatal("SSE follow carried no live clock line")
				}
			}
			if n := countClocks(mid); n != 0 {
				t.Errorf("follow=0 SSE read carried %d clock lines", n)
			}
			if n := countClocks(kres.items); n != 0 {
				t.Errorf("keyed query's SSE follow carried %d clock lines", n)
			}
			for _, l := range bytes.Split(bytes.TrimSuffix(nd.bytes(), []byte("\n")), []byte("\n")) {
				if !bytes.HasPrefix(l, []byte("{")) {
					t.Fatalf("NDJSON follow carried line %q", l)
				}
			}
		})
	}
}
