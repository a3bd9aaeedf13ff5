package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// This file merges per-partition read streams back into one. The core
// invariant: a match binds only events of one partition (patterns are
// evaluated per routed substream), and every event carries a
// router-assigned, globally unique sequence number. Ordering matches
// by (window start, minimum bound sequence) is therefore a total
// order across partitions — two matches can only tie on both
// components by binding the same first event, which puts them on the
// same partition, where the node's own emission order breaks the tie
// deterministically (the merge is stable per partition).

// matchKey is the merge sort key of one match line.
type matchKey struct {
	first  int64
	minSeq int64
}

func (k matchKey) less(o matchKey) bool {
	if k.first != o.first {
		return k.first < o.first
	}
	return k.minSeq < o.minSeq
}

// parseMatchKey extracts the sort key from a rendered match line.
func parseMatchKey(line []byte) (matchKey, error) {
	var m struct {
		First    int64 `json:"first"`
		Bindings []struct {
			Events []struct {
				Seq int64 `json:"seq"`
			} `json:"events"`
		} `json:"bindings"`
	}
	if err := json.Unmarshal(line, &m); err != nil {
		return matchKey{}, fmt.Errorf("cluster: match line does not parse: %w", err)
	}
	k := matchKey{first: m.First, minSeq: -1}
	for _, b := range m.Bindings {
		for _, e := range b.Events {
			if k.minSeq < 0 || e.Seq < k.minSeq {
				k.minSeq = e.Seq
			}
		}
	}
	if k.minSeq < 0 {
		return matchKey{}, fmt.Errorf("cluster: match line binds no events")
	}
	return k, nil
}

// doPartition performs one fanned-out request against a partition,
// failing over between its nodes like the ingest path. The caller owns
// the response body.
func (r *Router) doPartition(ctx context.Context, rp *routePartition, method, path string, body []byte) (*http.Response, error) {
	var resp *http.Response
	first := true
	err := resilience.Retry(ctx, r.retry, func() error {
		if !first && r.retries != nil {
			r.retries.Inc()
		}
		act := rp.active.Load()
		first = false
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		req, err := http.NewRequestWithContext(ctx, method, rp.nodes[act].url+path, rd)
		if err != nil {
			return resilience.Permanent(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rsp, err := r.client.Do(req)
		if err != nil {
			rp.failover(act)
			return err
		}
		if rsp.StatusCode == http.StatusServiceUnavailable {
			raw, _ := io.ReadAll(io.LimitReader(rsp.Body, 1<<16))
			rsp.Body.Close()
			var e struct {
				Error string `json:"error"`
				State string `json:"state"`
			}
			_ = json.Unmarshal(raw, &e)
			rp.failover(act)
			return &routedError{status: rsp.StatusCode, state: e.State, msg: e.Error}
		}
		resp = rsp
		return nil
	})
	return resp, err
}

// PartitionResponse is one partition's reply to a fanned-out request.
type PartitionResponse struct {
	ID     int
	Status int
	Body   []byte
}

// fanOut performs the request against every partition and collects
// the replies in partition order.
func (r *Router) fanOut(ctx context.Context, method, path string, body []byte) ([]PartitionResponse, error) {
	out := make([]PartitionResponse, len(r.parts))
	for i, rp := range r.parts {
		resp, err := r.doPartition(ctx, rp, method, path, body)
		if err != nil {
			return nil, fmt.Errorf("cluster: partition %d: %w", rp.ID, err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: partition %d: %w", rp.ID, err)
		}
		out[i] = PartitionResponse{ID: rp.ID, Status: resp.StatusCode, Body: raw}
	}
	return out, nil
}

// queryDoc is the slice of a node's query info the router consumes.
type queryDoc struct {
	ID      string `json:"id"`
	Query   string `json:"query"`
	Window  int64  `json:"window"`
	Events  int64  `json:"events"`
	Shed    int64  `json:"shed"`
	Matches int64  `json:"matches"`
	Done    bool   `json:"done"`
}

// MergedQueryInfo is the router's view of a fanned-out query.
type MergedQueryInfo struct {
	ID         string `json:"id"`
	Query      string `json:"query"`
	Window     int64  `json:"window"`
	Events     int64  `json:"events"`
	Shed       int64  `json:"shed"`
	Matches    int64  `json:"matches"`
	Done       bool   `json:"done"`
	Partitions int    `json:"partitions"`
}

// mergeQueryDocs folds per-partition query infos into the router view:
// counters sum, Done holds only when every partition is done.
func mergeQueryDocs(resps []PartitionResponse) (MergedQueryInfo, error) {
	var out MergedQueryInfo
	out.Done = true
	for i, pr := range resps {
		var d queryDoc
		if err := json.Unmarshal(pr.Body, &d); err != nil {
			return out, fmt.Errorf("cluster: partition %d query info: %w", pr.ID, err)
		}
		if i == 0 {
			out.ID, out.Query, out.Window = d.ID, d.Query, d.Window
		}
		out.Events += d.Events
		out.Shed += d.Shed
		out.Matches += d.Matches
		out.Done = out.Done && d.Done
	}
	out.Partitions = len(resps)
	return out, nil
}

// FoldDoc is a node's GET /queries/{id}/stats?fold=1 body: the
// registered query text and the query aggregator's snapshot section
// (engine.Aggregator.FoldStats).
type FoldDoc struct {
	Query string          `json:"query"`
	Agg   json.RawMessage `json:"agg"`
}

// MergeStats fans the fold-form stats request to every partition,
// compiles the aggregation plan from the query text the partitions
// report (refusing partitions that disagree on it) and merges their
// sections (engine.MergeFoldStats): accumulators re-fold, HAVING
// applies to the merged groups.
func (r *Router) MergeStats(ctx context.Context, id string) ([]byte, int, error) {
	path := "/queries/" + url.PathEscape(id) + "/stats?fold=1"
	resps, err := r.fanOut(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	docs := make([]FoldDoc, len(resps))
	sections := make([][]byte, len(resps))
	for i, pr := range resps {
		if pr.Status != http.StatusOK {
			// Bubble the node's own error (404, 400 no AGGREGATE, ...).
			return pr.Body, pr.Status, nil
		}
		if err := json.Unmarshal(pr.Body, &docs[i]); err != nil {
			return nil, 0, fmt.Errorf("cluster: partition %d fold stats: %w", pr.ID, err)
		}
		if docs[i].Query != docs[0].Query {
			return nil, 0, fmt.Errorf("cluster: partitions disagree on query %q: partition %d runs %q, partition %d runs %q",
				id, resps[0].ID, docs[0].Query, pr.ID, docs[i].Query)
		}
		sections[i] = docs[i].Agg
	}
	_, plan, err := engine.CompileQuery(docs[0].Query, r.schema)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: compiling query %q: %w", id, err)
	}
	if plan == nil {
		return nil, 0, fmt.Errorf("cluster: query %q has no AGGREGATE clause", id)
	}
	merged, err := engine.MergeFoldStats(plan, sections)
	if err != nil {
		return nil, 0, err
	}
	return merged, http.StatusOK, nil
}

// ClockComment starts the SSE comment line ": clock <t>" with which a
// node punctuates a match follow: no match line after it has window
// start + WITHIN below t (see server.Server.Handler).
const ClockComment = ": clock "

// AppendSSE appends to b the SSE event "id: <id>\ndata: <line>\n\n",
// the frame of one line in every match stream a node or a router
// serves. line holds no newline: an encoded match never does.
func AppendSSE(b []byte, id int64, line []byte) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, "\ndata: "...)
	b = append(b, line...)
	return append(b, "\n\n"...)
}

// matchLine is one item of a partition's match stream, in stream
// order: a match line, or (clock set) a clock punctuation.
type matchLine struct {
	data  []byte
	clock bool
	t     int64
}

// partFeed is one partition's live match stream state inside a merge.
type partFeed struct {
	lines chan matchLine // stream-order items from the reader
	err   chan error     // reader terminal state (nil = clean end)

	head  [][]byte   // buffered lines not yet released
	keys  []matchKey // sort keys, index-aligned with head
	ended bool
	// clock is the highest stream clock the node has punctuated its
	// stream with: no line the merge has yet to take from this
	// partition has window start + WITHIN below it.
	clock int64
}

// take records one item from the feed's reader channel: a match line
// goes to head, a clock punctuation raises clock.
func (f *partFeed) take(ml matchLine) error {
	if ml.clock {
		f.clock = max(f.clock, ml.t)
		return nil
	}
	k, err := parseMatchKey(ml.data)
	if err != nil {
		return err
	}
	f.head = append(f.head, ml.data)
	f.keys = append(f.keys, k)
	return nil
}

// poke wakes the merge loop without blocking: wake holds one pending
// signal, which covers every send made before the loop drains it.
func poke(wake chan<- struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// streamPartitionMatches reads one partition's match stream as SSE,
// reconnecting (with node failover) at the last consumed offset until
// the stream ends cleanly or ctx is cancelled. Every item is sent to
// out in stream order, each send followed by a poke of wake. It
// returns the reader's terminal state (nil for a clean end).
func (r *Router) streamPartitionMatches(ctx context.Context, rp *routePartition, id string, follow bool, out chan<- matchLine, wake chan<- struct{}) error {
	next := int64(0)
	b := resilience.NewBackoff(r.retry)
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		act := rp.active.Load()
		u := fmt.Sprintf("%s/queries/%s/matches?from=%d&follow=%s",
			rp.nodes[act].url, url.PathEscape(id), next, boolParam(follow))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := r.client.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				return fmt.Errorf("cluster: partition %d: query %q not registered: %s", rp.ID, id, raw)
			}
			err = fmt.Errorf("cluster: partition %d matches: %s: %s", rp.ID, resp.Status, raw)
		}
		if err != nil {
			rp.failover(act)
			attempts++
			if r.retry.MaxAttempts > 0 && attempts >= r.retry.MaxAttempts {
				return err
			}
			if r.retries != nil {
				r.retries.Inc()
			}
			select {
			case <-time.After(b.Next()):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		attempts = 0
		b.Reset()
		clean, n, serr := consumeSSE(ctx, resp.Body, next, out, wake)
		resp.Body.Close()
		next = n
		if clean {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(serr, bufio.ErrTooLong) {
			// The node's log is deterministic: every node of the
			// partition would serve the same line again.
			return fmt.Errorf("cluster: partition %d: match line at offset %d exceeds %d bytes: %w",
				rp.ID, next, maxMatchLine, serr)
		}
		// Otherwise a dropped connection: reconnect at the next offset.
	}
}

// maxMatchLine caps one line of a partition's match stream.
const maxMatchLine = 4 << 20

// consumeSSE parses a match SSE stream: data events and clock
// comments are forwarded to out, each followed by a poke of wake; an
// explicit "end" event reports a clean termination. Returns whether
// the stream ended cleanly and the next offset to resume at.
func consumeSSE(ctx context.Context, body io.Reader, next int64, out chan<- matchLine, wake chan<- struct{}) (clean bool, resume int64, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxMatchLine)
	send := func(ml matchLine) bool {
		select {
		case out <- ml:
			poke(wake)
			return true
		case <-ctx.Done():
			return false
		}
	}
	evType := ""
	pendingID := next
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			evType = ""
		case strings.HasPrefix(line, ClockComment):
			t, perr := strconv.ParseInt(strings.TrimPrefix(line, ClockComment), 10, 64)
			if perr == nil && !send(matchLine{clock: true, t: t}) {
				return false, next, ctx.Err()
			}
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			if v, perr := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64); perr == nil {
				pendingID = v
			}
		case strings.HasPrefix(line, "data: "):
			if evType == "end" {
				return true, next, nil
			}
			if !send(matchLine{data: []byte(strings.TrimPrefix(line, "data: "))}) {
				return false, next, ctx.Err()
			}
			next = pendingID + 1
		}
	}
	return false, next, sc.Err()
}

func boolParam(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// StreamMatches serves the merged match stream of a fanned-out query:
// one reader per partition, merged by (window start, minimum bound
// sequence). emit receives each released line with its merged offset;
// from skips the first offsets (the merge is deterministic, so a
// reconnecting client sees the same prefix and can resume by offset).
// A head is released once every other partition has ended its stream,
// buffered a match of its own, or punctuated its stream with a clock
// past the head's release horizon (window start + the query's WITHIN
// duration): a match that partition emits later closes its window at
// or above that clock, so it starts after the head. Only follow
// streams of unkeyed queries carry clocks; otherwise a head waits for
// the other heads or the end of the streams. The merge blocks on its
// readers, which wake it after every item they deliver.
func (r *Router) StreamMatches(ctx context.Context, id string, from int64, follow bool, emit func(off int64, line []byte) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The release horizon needs the query's WITHIN duration.
	resp, err := r.doPartition(ctx, r.parts[0], http.MethodGet, "/queries/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &routedError{status: resp.StatusCode, msg: string(raw)}
	}
	var qd queryDoc
	if err := json.Unmarshal(raw, &qd); err != nil {
		return err
	}
	window := qd.Window

	wake := make(chan struct{}, 1)
	feeds := make([]*partFeed, len(r.parts))
	for i, rp := range r.parts {
		f := &partFeed{lines: make(chan matchLine, 64), err: make(chan error, 1), clock: math.MinInt64}
		feeds[i] = f
		go func() {
			f.err <- r.streamPartitionMatches(ctx, rp, id, follow, f.lines, wake)
			poke(wake)
		}()
	}

	var off int64
	for {
		// Drain whatever the readers have delivered without blocking.
		for _, f := range feeds {
			for !f.ended {
				select {
				case ml := <-f.lines:
					if err := f.take(ml); err != nil {
						return err
					}
					continue
				case err := <-f.err:
					// Drain items the reader delivered before its end.
					for len(f.lines) > 0 {
						if err := f.take(<-f.lines); err != nil {
							return err
						}
					}
					f.ended = true
					if err != nil && ctx.Err() == nil {
						return err
					}
				default:
				}
				break
			}
		}

		// Release every head that is provably next in the total order.
		for {
			min := -1
			for i, f := range feeds {
				if len(f.head) == 0 {
					continue
				}
				if min < 0 || f.keys[0].less(feeds[min].keys[0]) {
					min = i
				}
			}
			if min < 0 {
				break
			}
			k := feeds[min].keys[0]
			ok := true
			for i, f := range feeds {
				if i != min && !f.ended && len(f.head) == 0 && f.clock <= k.first+window {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			line := feeds[min].head[0]
			feeds[min].head = feeds[min].head[1:]
			feeds[min].keys = feeds[min].keys[1:]
			if off >= from {
				if err := emit(off, line); err != nil {
					return err
				}
				if r.mergedOut != nil {
					r.mergedOut.Inc()
				}
			}
			off++
		}

		allEnded := true
		for _, f := range feeds {
			if !f.ended || len(f.head) > 0 {
				allEnded = false
				break
			}
		}
		if allEnded {
			return nil
		}

		// Nothing more is releasable: wait for a reader to deliver.
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
