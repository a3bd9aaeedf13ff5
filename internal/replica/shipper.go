// Package replica implements warm-standby replication for the serving
// layer by shipping the leader's WAL to followers over HTTP.
//
// The match stream of a server is a deterministic function of its
// ordered event log: each record carries its seq, Seq drives
// evaluation, and matches are encoded once in arrival order.
// Replicating the log therefore replicates the service — a follower
// that appends the leader's records at the same offsets and seqs and
// runs the same queries
// produces byte-identical match streams, which is what makes failover
// safe to verify (the follower's output is a prefix of what a single
// node would have produced).
//
// The leader mounts a Shipper next to its normal API; a follower runs
// a Puller that tails the shipper, appends to its own WAL through
// Server.ApplyReplicated, and mirrors the leader's query manifest.
// Promotion bumps a monotonic fencing epoch persisted in the WAL
// manifest, so a revived old leader observes the higher epoch and
// refuses writes instead of forking the log.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// Wire protocol headers. The shipper stamps its fencing epoch and the
// tail offset on every segment response; the puller reports its own
// epoch so a deposed leader can fence itself even without the startup
// peer check.
const (
	// HeaderEpoch carries the shipper's fencing epoch.
	HeaderEpoch = "X-SES-Epoch"
	// HeaderNextOffset carries the shipper's WAL tail at response time.
	HeaderNextOffset = "X-SES-Next-Offset"
	// HeaderFollowerEpoch carries the puller's fencing epoch.
	HeaderFollowerEpoch = "X-SES-Follower-Epoch"
)

// Manifest is the body of GET /replica/manifest: everything a
// follower needs to mirror the leader — fencing epoch, offset window,
// schema fingerprint and the query set with registration fences.
type Manifest struct {
	// Epoch is the leader's fencing epoch.
	Epoch int64 `json:"epoch"`
	// FirstOffset is the oldest retained WAL offset.
	FirstOffset int64 `json:"first_offset"`
	// NextOffset is the WAL tail.
	NextOffset int64 `json:"next_offset"`
	// Schema is the canonical rendering of the event schema; a
	// follower refuses a leader whose schema differs from its own.
	Schema string `json:"schema"`
	// Queries is the registered query set with fence seqs.
	Queries []server.ReplicatedQuery `json:"queries"`
}

// maxWaitMS caps the long-poll duration a follower may request.
const maxWaitMS = 30_000

// Shipper serves the leader side of the replication protocol:
//
//	GET /replica/manifest          the Manifest above
//	GET /replica/wal?from=N        CRC-framed records from offset N
//	       &ack=M                  follower's durable tail (retention floor)
//	       &wait_ms=T              long-poll at the tail for up to T ms
//
// The wal response streams records in exactly the on-disk frame
// format (length, CRC32C, payload), so the follower re-verifies the
// same checksum the leader computed at append time. A from below the
// retained window is 410 Gone (the follower must be re-seeded); a
// from beyond the tail is 409 Conflict (the follower diverged).
type Shipper struct {
	srv *server.Server
	log *wal.Log
	mux *http.ServeMux

	mRequests *obs.Counter
	mShipped  *obs.Counter
}

// NewShipper builds the leader-side handler over the server's WAL. It
// fails on a server running without one — there is nothing to ship.
func NewShipper(srv *server.Server, reg *obs.Registry) (*Shipper, error) {
	log := srv.WAL()
	if log == nil {
		return nil, errors.New("replica: shipper requires a WAL-backed server")
	}
	sh := &Shipper{srv: srv, log: log, mux: http.NewServeMux()}
	sh.mux.HandleFunc("GET /replica/manifest", sh.handleManifest)
	sh.mux.HandleFunc("GET /replica/wal", sh.handleWAL)
	if reg != nil {
		sh.mRequests = reg.Counter("ses_replica_ship_requests_total",
			"Segment-stream requests served to followers.")
		sh.mShipped = reg.Counter("ses_replica_ship_records_total",
			"Records shipped to followers.")
		reg.GaugeFunc("ses_replica_retention_floor",
			"Highest offset acknowledged by a follower; -1 before the first ack.",
			log.RetentionFloor)
	} else {
		sh.mRequests, sh.mShipped = &obs.Counter{}, &obs.Counter{}
	}
	return sh, nil
}

// ServeHTTP dispatches the /replica/ routes.
func (sh *Shipper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mux.ServeHTTP(w, r)
}

func (sh *Shipper) handleManifest(w http.ResponseWriter, r *http.Request) {
	sh.observeFollowerEpoch(r)
	m := Manifest{
		Epoch:       sh.srv.Epoch(),
		FirstOffset: sh.log.FirstOffset(),
		NextOffset:  sh.log.NextOffset(),
		Schema:      sh.srv.Schema().String(),
		Queries:     sh.srv.ReplicatedQueries(),
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, http.StatusOK, m)
}

// observeFollowerEpoch fences this node when a follower reports a
// higher epoch: someone was promoted past us, so the local server
// must stop accepting writes.
func (sh *Shipper) observeFollowerEpoch(r *http.Request) {
	if v := r.Header.Get(HeaderFollowerEpoch); v != "" {
		if e, err := strconv.ParseInt(v, 10, 64); err == nil {
			sh.srv.Fence(e)
		}
	}
}

func (sh *Shipper) handleWAL(w http.ResponseWriter, r *http.Request) {
	sh.mRequests.Inc()
	sh.observeFollowerEpoch(r)

	q := r.URL.Query()
	from, err := parseOffset(q.Get("from"), 0)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("invalid from offset %q", q.Get("from")))
		return
	}
	ack, err := parseOffset(q.Get("ack"), -1)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("invalid ack offset %q", q.Get("ack")))
		return
	}
	waitMS, err := parseOffset(q.Get("wait_ms"), 0)
	if err != nil || waitMS < 0 || waitMS > maxWaitMS {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("invalid wait_ms %q (max %d)", q.Get("wait_ms"), maxWaitMS))
		return
	}
	if ack >= 0 {
		sh.log.SetRetentionFloor(ack)
	}

	if from > sh.log.NextOffset() {
		writeJSONError(w, http.StatusConflict,
			fmt.Sprintf("follower offset %d is beyond the leader tail %d: the logs diverged; re-seed the follower", from, sh.log.NextOffset()))
		return
	}

	// Long-poll: a follower at the tail parks here instead of spinning.
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	for from == sh.log.NextOffset() && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}

	if from < sh.log.FirstOffset() {
		writeJSONError(w, http.StatusGone,
			fmt.Sprintf("offset %d was reclaimed by retention (oldest retained: %d); re-seed the follower", from, sh.log.FirstOffset()))
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderEpoch, strconv.FormatInt(sh.srv.Epoch(), 10))
	w.Header().Set(HeaderNextOffset, strconv.FormatInt(sh.log.NextOffset(), 10))
	w.WriteHeader(http.StatusOK)

	flusher, _ := w.(http.Flusher)
	rd := sh.log.NewReader(from)
	defer rd.Close()
	schema := sh.srv.Schema()
	var payload, frame []byte
	shipped := 0
	for {
		_, e, err := rd.Next()
		if err != nil {
			// io.EOF: caught up to the tail — end the response, the
			// follower re-requests from its new tail. ErrTruncated or
			// corruption mid-stream: the response just ends early; the
			// follower's next request gets the proper status code.
			break
		}
		// Each record ships with its seq (a legacy segment's record with
		// its offset), so the follower numbers the stream as the leader
		// did and the numbering survives failover.
		payload = wal.EncodeEvent(payload[:0], schema, &e)
		frame = wal.EncodeFrame(frame[:0], payload)
		if _, err := w.Write(frame); err != nil {
			return // follower went away
		}
		shipped++
		if shipped%1024 == 0 && flusher != nil {
			flusher.Flush()
		}
	}
	sh.mShipped.Add(int64(shipped))
	if flusher != nil {
		flusher.Flush()
	}
}

// parseOffset parses a decimal query parameter, returning def when it
// is absent.
func parseOffset(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONError renders a one-field error body.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
