package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Handler returns the server's HTTP API:
//
//	POST   /events               NDJSON batch ingest (one event per line)
//	GET    /queries              list registered queries
//	POST   /queries              register a query (JSON QuerySpec body);
//	                             ?backfill=true replays retained WAL
//	                             history through the new query first
//	GET    /queries/{id}         one query's state
//	DELETE /queries/{id}         unregister a query
//	GET    /queries/{id}/matches stream matches as NDJSON or SSE
//	GET    /queries/{id}/stats   aggregate results of an AGGREGATE query
//	POST   /promote              promote a follower to leader
//	GET    /healthz              liveness probe (role + fencing epoch)
//
// With a configured metrics registry the observability surface of
// internal/obs is mounted as well: /metrics (Prometheus text format),
// /debug/vars and /debug/pprof/.
//
// The match stream accepts ?from=N to start at match-log offset N
// (older offsets clamp to the retention window) and ?follow=1 to keep
// the connection open for live matches until the query's pipeline
// terminates or the client disconnects. With an Accept header of
// text/event-stream matches are sent as SSE events whose id field is
// the match-log offset; otherwise one JSON object per line (NDJSON).
// An SSE follow of an unkeyed query that is not catching up also
// carries the pipeline's stream clock as comment lines ": clock <t>"
// (resilience.Supervisor.CompletedThrough), written after the lines
// they follow whenever the clock has risen: no match line after
// ": clock T" has window start + WITHIN < T. SSE parsers skip comment
// lines; a cluster router releases its merged stream on them.
//
// The stats endpoint serves an AGGREGATE query's aggregate groups as
// one JSON document (engine.Aggregator.Stats). Plain GET returns the
// current snapshot; ?follow=1 switches to SSE and pushes a delta
// document after every change (each event's id field is the document
// version) until the query's pipeline terminates or the client
// disconnects. Queries without an AGGREGATE clause answer 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /events", s.handleIngest)
	mux.HandleFunc("GET /queries", s.handleListQueries)
	mux.HandleFunc("POST /queries", s.handleAddQuery)
	mux.HandleFunc("GET /queries/{id}", s.handleGetQuery)
	mux.HandleFunc("DELETE /queries/{id}", s.handleRemoveQuery)
	mux.HandleFunc("GET /queries/{id}/matches", s.handleMatches)
	mux.HandleFunc("GET /queries/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]interface{}{
			"status": "ok",
			"role":   s.Role(),
			"epoch":  s.Epoch(),
		}
		if own := s.cfg.Ownership; own != nil {
			// The cluster router's health tracker reads these: last_seq
			// resumes the global numbering after a router restart,
			// last_time is the deterministic merge watermark, and the
			// partition block lets it cross-check its membership file.
			body["partition"] = map[string]interface{}{
				"key": own.Key, "slots": own.Slots, "lo": own.Lo, "hi": own.Hi,
			}
			body["last_seq"] = s.LastSeq()
			if t, ok := s.LastTime(); ok {
				body["last_time"] = t
			}
			body["deduped"] = s.Deduped()
		}
		writeJSON(w, http.StatusOK, body)
	})
	if s.cfg.Registry != nil {
		dm := obs.DebugMux(s.cfg.Registry)
		mux.Handle("/metrics", dm)
		mux.Handle("/debug/", dm)
	}
	return mux
}

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// retryAfterSeconds is the Retry-After hint on 503 responses: drains
// finish (or the process exits) and promotions land within seconds,
// so a short client backoff is right in every unavailable state.
const retryAfterSeconds = 1

// writeError maps a registry/ingest error to its HTTP status. The
// unavailable states — draining, follower (read-only) and fenced —
// return 503 with a Retry-After header and a "state" field, so
// clients can distinguish "retry here shortly" (draining) from "find
// the leader" (follower, fenced).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	state := ""
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicate):
		status = http.StatusConflict
	case errors.Is(err, ErrNotOwned):
		// The event was routed to the wrong node; 421 tells the router
		// to re-resolve the topology rather than retry here.
		status, state = http.StatusMisdirectedRequest, "not-owned"
	case errors.Is(err, ErrDraining):
		status, state = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrReadOnly):
		status, state = http.StatusServiceUnavailable, "follower"
	case errors.Is(err, ErrFenced):
		status, state = http.StatusServiceUnavailable, "fenced"
	}
	body := map[string]string{"error": err.Error()}
	if state != "" {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		body["state"] = state
	}
	writeJSON(w, status, body)
}

// maxEventLine bounds one NDJSON ingest line (1 MiB).
const maxEventLine = 1 << 20

// ingestScratch is what one POST /events needs besides the batch it
// produces: the block decoder and the line scanner's buffer (64 KiB,
// which the runtime would otherwise allocate and zero per request).
type ingestScratch struct {
	dec  *engine.BlockDecoder
	scan []byte
}

// ingestFreeCap is how many idle ingestScratch values the server keeps:
// enough for the handful of connections that decode concurrently ahead
// of the serialized dispatch. A fixed list, not a sync.Pool: a pool is
// emptied by every other collection, and a server whose live heap is a
// few MiB collects every few hundred events.
const ingestFreeCap = 4

func (s *Server) getIngestScratch() *ingestScratch {
	select {
	case sc := <-s.ingestFree:
		return sc
	default:
		return &ingestScratch{dec: engine.NewBlockDecoder(s.cfg.Schema), scan: make([]byte, 64*1024)}
	}
}

func (s *Server) putIngestScratch(sc *ingestScratch) {
	sc.dec.Reset()
	select {
	case s.ingestFree <- sc:
	default:
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	scratch := s.getIngestScratch()
	defer s.putIngestScratch(scratch)
	dec := scratch.dec
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.maxIngestBody))
	sc.Buffer(scratch.scan, maxEventLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !dec.Add(lineNo, line) {
			break
		}
	}
	// An oversized body is refused whole: the scan stopped at an
	// arbitrary byte, so neither the decoded prefix nor a decode error
	// on the cut line means anything.
	var tooBig *http.MaxBytesError
	if errors.As(sc.Err(), &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("ingest body exceeds %d bytes", s.maxIngestBody)})
		return
	}
	events, err := dec.Finish()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	received := len(events)
	n, err := s.ingestOwned(events) // fresh from Finish and not used again
	if err != nil {
		writeError(w, err)
		return
	}
	resp := map[string]int{"ingested": n}
	if s.cfg.Ownership != nil {
		// A routed batch may shrink: events at or below the node's
		// sequence high-water are duplicate deliveries from a router
		// retry, dropped idempotently.
		resp["deduped"] = received - n
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAddQuery(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	backfill := false
	switch v := r.URL.Query().Get("backfill"); v {
	case "", "0", "false":
	case "1", "true":
		backfill = true
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid backfill value %q", v)})
		return
	}
	var (
		info QueryInfo
		err  error
	)
	if backfill {
		info, err = s.AddQueryBackfill(spec)
	} else {
		info, err = s.AddQuery(spec)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handlePromote turns a follower into the leader (POST /promote).
// Promotion on a server that is already the leader is a no-op that
// reports the current epoch; a fenced server refuses with 409, since
// a peer already won a newer election.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, err := s.Promote()
	if err != nil {
		if errors.Is(err, ErrFenced) {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error(), "state": "fenced"})
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"role": s.Role(), "epoch": epoch})
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"queries": s.Queries()})
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	info, err := s.Query(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRemoveQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.RemoveQuery(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxWriteChunk caps the bytes a match read frames before writing them
// out: a round is one Write unless it catches up on a long backlog, which
// then streams in chunks instead of being copied whole.
const maxWriteChunk = 64 << 10

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	q, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	var from int64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid from offset %q", v)})
			return
		}
		from = n
	}
	follow := false
	switch v := r.URL.Query().Get("follow"); v {
	case "", "0", "false":
	case "1", "true":
		follow = true
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid follow value %q", v)})
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	// Commit the headers before the first (possibly delayed) match so
	// a live follower's request completes immediately.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	// punctuate: write the ": clock <t>" lines described at Handler.
	punctuate := sse && follow && q.spec.Key == ""
	lastClock := int64(math.MinInt64)
	off := from
	// A read round's lines are framed into buf and written with one
	// Write and one Flush; lines and buf are reused across rounds.
	var (
		lines [][]byte
		buf   []byte
	)
	for {
		// The progress channel is taken before the clock is read, so a
		// clock published in between still wakes this reader. Before the
		// lazily started pipeline exists, its start is the wake-up.
		sup := q.sup.Load()
		var progress <-chan struct{}
		if punctuate {
			if sup != nil {
				progress = sup.Progress()
			} else {
				progress = q.started
			}
		}
		// Matches that failed to encode are emitted but not logged; the
		// count is taken before the log, so each drop it includes has
		// its block's lines in this read.
		dropped := q.log.droppedCount()
		var wait <-chan struct{}
		lines, off, wait = q.log.read(lines[:0], off)
		// A read below the retention window starts at the oldest
		// retained line: ids are the lines' own offsets.
		first := off - int64(len(lines))
		buf = buf[:0]
		for i, line := range lines {
			if sse {
				buf = cluster.AppendSSE(buf, first+int64(i), line)
			} else {
				buf = append(append(buf, line...), '\n')
			}
			if len(buf) >= maxWriteChunk {
				if _, err := w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		wrote := len(lines) > 0
		clear(lines) // pin no evicted block's buffer while waiting
		if punctuate && sup != nil && !q.catchingUp.Load() {
			// Clock before emitted count (resilience.Supervisor.CompletedThrough):
			// once this reader holds every match emitted as of the clock
			// read, logged or dropped, no later line closes its window
			// below the clock.
			if t, ok := sup.CompletedThrough(); ok && t > lastClock && off+dropped >= sup.Emitted() {
				buf = append(buf, cluster.ClockComment...)
				buf = append(strconv.AppendInt(buf, t, 10), '\n')
				lastClock = t
				wrote = true
			}
		}
		if wrote {
			if _, err := w.Write(buf); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if wait == nil {
			// The pipeline has terminated; the log is complete.
			if sse {
				io.WriteString(w, "event: end\ndata: {}\n\n")
				if flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		if !follow {
			return
		}
		select {
		case <-wait:
		case <-progress:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	q, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	if q.agg == nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("query %q has no AGGREGATE clause", q.spec.ID)})
		return
	}
	follow := false
	switch v := r.URL.Query().Get("follow"); v {
	case "", "0", "false":
	case "1", "true":
		follow = true
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid follow value %q", v)})
		return
	}
	fold := false
	switch v := r.URL.Query().Get("fold"); v {
	case "", "0", "false":
	case "1", "true":
		fold = true
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid fold value %q", v)})
		return
	}
	s.statsRequests.Inc()
	if fold {
		// The machine-readable merge form for cluster routers: the
		// registered text, from which the router compiles the plan, and
		// the aggregator's snapshot section with every group (HAVING is
		// re-applied after the cross-partition merge). Snapshot only.
		writeJSON(w, http.StatusOK, cluster.FoldDoc{Query: q.spec.Query, Agg: q.agg.FoldStats()})
		return
	}
	if !follow {
		data, _, _ := q.agg.Stats(0)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		io.WriteString(w, "\n")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	var since uint64
	var buf []byte
	for first := true; ; first = false {
		// The first round (since = 0) pushes the full snapshot; every
		// later round pushes a delta of the groups folded into since the
		// version the client last saw. A wake-up that changed nothing —
		// the lazily started pipeline resetting its still empty
		// aggregator — pushes nothing: ids strictly increase.
		data, ver, wait := q.agg.Stats(since)
		if data != nil && (first || ver != since) {
			buf = cluster.AppendSSE(buf[:0], int64(ver), data)
			w.Write(buf)
			if flusher != nil {
				flusher.Flush()
			}
		}
		since = ver
		if wait == nil {
			// The pipeline has terminated; the aggregate state is final.
			fmt.Fprintf(w, "event: end\ndata: {}\n\n")
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
