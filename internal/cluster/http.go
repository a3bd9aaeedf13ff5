package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Handler returns the router's HTTP API — the same surface a single
// sesd node serves, so clients move between the two by changing the
// base URL:
//
//	POST   /events               NDJSON batch ingest, split by partition
//	POST   /queries              register on every partition
//	GET    /queries              query list (all partitions are kept in
//	                             lockstep; partition 0 answers)
//	GET    /queries/{id}         merged query state (counters summed)
//	DELETE /queries/{id}         unregister on every partition
//	GET    /queries/{id}/matches deterministic merged match stream
//	GET    /queries/{id}/stats   merged aggregate document
//	GET    /healthz              cluster view: every node's role, epoch
//	                             and sequence/time high-water
//
// The match stream accepts the node's ?from=N and ?follow=1
// parameters; offsets address the merged stream. With a metrics
// registry configured, /metrics and /debug/ are mounted as well.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /events", r.handleIngest)
	mux.HandleFunc("POST /queries", r.handleAddQuery)
	mux.HandleFunc("GET /queries", r.handleListQueries)
	mux.HandleFunc("GET /queries/{id}", r.handleGetQuery)
	mux.HandleFunc("DELETE /queries/{id}", r.handleRemoveQuery)
	mux.HandleFunc("GET /queries/{id}/matches", r.handleMatches)
	mux.HandleFunc("GET /queries/{id}/stats", r.handleStats)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	if r.registry != nil {
		dm := obs.DebugMux(r.registry)
		mux.Handle("/metrics", dm)
		mux.Handle("/debug/", dm)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "%s\n", mustJSON(v))
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encoding response"}`)
	}
	return b
}

// routeErrStatus maps a routing error to the status the router
// reports: a node refusal keeps its status (503 stays 503 with the
// node's state so clients back off the same way), everything else is
// a 502 — the router could not complete the fan-out.
func routeErrStatus(err error) (int, map[string]string) {
	var re *routedError
	if errors.As(err, &re) {
		body := map[string]string{"error": err.Error()}
		if re.state != "" {
			body["state"] = re.state
		}
		return re.status, body
	}
	return http.StatusBadGateway, map[string]string{"error": err.Error()}
}

// MaxIngestBody bounds one POST /events body (64 MiB), on the router
// and on a node alike. A larger body is refused whole with 413.
const MaxIngestBody = 64 << 20

// maxSeqStamp is the most bytes the router's sequence stamp adds to
// one ingest line: `"seq":`, 19 digits and a comma.
const maxSeqStamp = 26

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	sc := r.getIngestScratch()
	sc.body.Reset()
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, req.Body, r.maxIngestBody))
	body := sc.body.Bytes()
	// The nodes apply the same cap to the stamped sub-batches, so a
	// body whose stamped form could exceed it is refused here, before
	// any sequence number is assigned.
	stamped := int64(len(body)) + int64(bytes.Count(body, []byte{'\n'})+1)*maxSeqStamp
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || stamped > r.maxIngestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("ingest body exceeds %d bytes", r.maxIngestBody)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	res, err := r.ingest(sc, body)
	if err != nil {
		var re *routedError
		if errors.As(err, &re) {
			status, b := routeErrStatus(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, b)
			return
		}
		// Decode-side errors are the client's.
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (r *Router) handleAddQuery(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	path := "/queries"
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	resps, err := r.fanOut(req.Context(), http.MethodPost, path, body)
	if err != nil {
		status, b := routeErrStatus(err)
		writeJSON(w, status, b)
		return
	}
	for _, pr := range resps {
		if pr.Status != http.StatusCreated {
			// Registration is idempotent per node (duplicates answer
			// 409), so the operator can retry after fixing the cause;
			// partitions that already accepted the query keep it.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(pr.Status)
			w.Write(pr.Body)
			return
		}
	}
	info, err := mergeQueryDocs(resps)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (r *Router) handleListQueries(w http.ResponseWriter, req *http.Request) {
	resp, err := r.doPartition(req.Context(), r.parts[0], http.MethodGet, "/queries", nil)
	if err != nil {
		status, b := routeErrStatus(err)
		writeJSON(w, status, b)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (r *Router) handleGetQuery(w http.ResponseWriter, req *http.Request) {
	path := "/queries/" + url.PathEscape(req.PathValue("id"))
	resps, err := r.fanOut(req.Context(), http.MethodGet, path, nil)
	if err != nil {
		status, b := routeErrStatus(err)
		writeJSON(w, status, b)
		return
	}
	for _, pr := range resps {
		if pr.Status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(pr.Status)
			w.Write(pr.Body)
			return
		}
	}
	info, err := mergeQueryDocs(resps)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (r *Router) handleRemoveQuery(w http.ResponseWriter, req *http.Request) {
	path := "/queries/" + url.PathEscape(req.PathValue("id"))
	resps, err := r.fanOut(req.Context(), http.MethodDelete, path, nil)
	if err != nil {
		status, b := routeErrStatus(err)
		writeJSON(w, status, b)
		return
	}
	for _, pr := range resps {
		if pr.Status != http.StatusNoContent {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(pr.Status)
			w.Write(pr.Body)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (r *Router) handleMatches(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var from int64
	if v := req.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid from offset %q", v)})
			return
		}
		from = n
	}
	follow := false
	switch v := req.URL.Query().Get("follow"); v {
	case "", "0", "false":
	case "1", "true":
		follow = true
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid follow value %q", v)})
		return
	}
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	headerSent := false
	var buf []byte // one merged line, framed
	emit := func(off int64, line []byte) error {
		if !headerSent {
			w.WriteHeader(http.StatusOK)
			headerSent = true
		}
		if sse {
			buf = AppendSSE(buf[:0], off, line)
		} else {
			buf = append(append(buf[:0], line...), '\n')
		}
		w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	err := r.StreamMatches(req.Context(), id, from, follow, emit)
	if err != nil && !headerSent && req.Context().Err() == nil {
		status, b := routeErrStatus(err)
		writeJSON(w, status, b)
		return
	}
	if !headerSent {
		w.WriteHeader(http.StatusOK)
	}
	if err == nil && sse {
		fmt.Fprintf(w, "event: end\ndata: {}\n\n")
	}
	if flusher != nil {
		flusher.Flush()
	}
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if v := req.URL.Query().Get("follow"); v != "" && v != "0" && v != "false" {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": "the router serves stats snapshots only (follow is per node)"})
		return
	}
	doc, status, err := r.MergeStats(req.Context(), req.PathValue("id"))
	if err != nil {
		s, b := routeErrStatus(err)
		writeJSON(w, s, b)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(doc)
	if len(doc) > 0 && doc[len(doc)-1] != '\n' {
		io.WriteString(w, "\n")
	}
}

// handleHealthz renders the router's cluster view: per partition, the
// slot range, each node's last-probed role, fencing epoch and
// sequence/time high-water, and which node currently takes writes.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	type nodeView struct {
		URL      string `json:"url"`
		Up       bool   `json:"up"`
		Role     string `json:"role"`
		Epoch    int64  `json:"epoch"`
		LastSeq  int64  `json:"last_seq"`
		LastTime *int64 `json:"last_time,omitempty"`
	}
	type partView struct {
		ID     int        `json:"id"`
		Slots  string     `json:"slots"`
		Active string     `json:"active"`
		Nodes  []nodeView `json:"nodes"`
	}
	body := struct {
		Status     string     `json:"status"`
		Key        string     `json:"key"`
		SlotCount  int        `json:"slot_count"`
		NextSeq    int64      `json:"next_seq"`
		Partitions []partView `json:"partitions"`
	}{Status: "ok", Key: r.m.Key, SlotCount: r.m.Slots, NextSeq: r.nextSeq.Load()}
	for _, rp := range r.parts {
		pv := partView{
			ID:     rp.ID,
			Slots:  fmt.Sprintf("%d-%d", rp.Lo, rp.Hi-1),
			Active: rp.nodes[rp.active.Load()].url,
		}
		for _, ns := range rp.nodes {
			nv := nodeView{
				URL:     ns.url,
				Up:      ns.up.Load(),
				Role:    ns.role.Load().(string),
				Epoch:   ns.epoch.Load(),
				LastSeq: ns.lastSeq.Load(),
			}
			if ns.hasTime.Load() {
				t := ns.lastTime.Load()
				nv.LastTime = &t
			}
			pv.Nodes = append(pv.Nodes, nv)
		}
		body.Partitions = append(body.Partitions, pv)
	}
	writeJSON(w, http.StatusOK, body)
}
