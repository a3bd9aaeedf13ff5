package server

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/wal"
)

// Replication-mode sentinel errors. The HTTP layer maps ErrReadOnly
// and ErrFenced to 503 responses with a Retry-After header, like
// ErrDraining.
var (
	// ErrReadOnly rejects writes on a follower: ingest and query
	// registration go to the leader; the follower applies them through
	// replication.
	ErrReadOnly = errors.New("server: read-only (follower) mode")
	// ErrFenced rejects writes on a deposed leader: a peer holds a
	// higher fencing epoch, so accepting writes here would fork the
	// log (split brain).
	ErrFenced = errors.New("server: fenced by a peer with a higher epoch")
	// ErrNotFollower rejects ApplyReplicated on a writable server:
	// replicated records may only land on a node that refuses direct
	// writes, otherwise two sources interleave in one log.
	ErrNotFollower = errors.New("server: not a follower (refusing replicated records on a writable server)")
)

// replState carries the server's replication role; a zero value is a
// plain writable leader.
type replState struct {
	readOnly atomic.Bool
	fenced   atomic.Bool
}

// SetReadOnly flips the server into follower mode: Ingest, AddQuery,
// AddQueryBackfill and RemoveQuery refuse with ErrReadOnly, and
// ApplyReplicated becomes the only write path. Call it before serving
// traffic; Promote is the supported way back to writable.
func (s *Server) SetReadOnly() { s.repl.readOnly.Store(true) }

// ReadOnly reports whether the server is in follower (read-only) mode.
func (s *Server) ReadOnly() bool { return s.repl.readOnly.Load() }

// Fenced reports whether the server refused leadership because a peer
// holds a higher fencing epoch.
func (s *Server) Fenced() bool { return s.repl.fenced.Load() }

// Role renders the server's replication role for health endpoints:
// "leader", "follower" or "fenced".
func (s *Server) Role() string {
	switch {
	case s.repl.fenced.Load():
		return "fenced"
	case s.repl.readOnly.Load():
		return "follower"
	default:
		return "leader"
	}
}

// Epoch returns the fencing epoch persisted in the WAL manifest, 0
// without a WAL.
func (s *Server) Epoch() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Epoch()
}

// WAL exposes the server's durable log to the replication shipper;
// nil when the server runs without one.
func (s *Server) WAL() *wal.Log { return s.wal }

// Schema returns the event schema the server was configured with.
func (s *Server) Schema() *event.Schema { return s.cfg.Schema }

// Fence records that a peer holds fencing epoch peerEpoch. When it
// exceeds the local epoch this server has been deposed: it flips
// read-only and refuses writes with ErrFenced until an operator
// rebuilds it as a follower. Lower or equal epochs are a no-op.
func (s *Server) Fence(peerEpoch int64) {
	if peerEpoch <= s.Epoch() {
		return
	}
	s.repl.fenced.Store(true)
	s.repl.readOnly.Store(true)
}

// AdoptEpoch persists the leader's fencing epoch on a follower, so a
// later promotion bumps past every epoch the leader ever held. A
// leader epoch below the follower's own is divergence — the follower
// replicated from a deposed leader — and is rejected.
func (s *Server) AdoptEpoch(e int64) error {
	if s.wal == nil {
		return ErrNoWAL
	}
	if e < s.wal.Epoch() {
		return fmt.Errorf("server: leader epoch %d below local epoch %d; refusing to follow a deposed leader", e, s.wal.Epoch())
	}
	return s.wal.SetEpoch(e)
}

// Promote turns a follower into the leader: it bumps the fencing
// epoch past the old leader's (persisted in the WAL manifest before
// any write is accepted) and re-opens the write path. The returned
// epoch is what the old leader must observe to fence itself. Promote
// is idempotent — promoting a leader returns its current epoch — but
// refuses on a fenced server, which lost a newer election.
func (s *Server) Promote() (int64, error) {
	if s.repl.fenced.Load() {
		return 0, ErrFenced
	}
	if !s.repl.readOnly.Load() {
		return s.Epoch(), nil
	}
	if s.wal != nil {
		if err := s.wal.SetEpoch(s.wal.Epoch() + 1); err != nil {
			return 0, err
		}
	}
	s.repl.readOnly.Store(false)
	return s.Epoch(), nil
}

// ApplyReplicated appends records shipped from the leader to the local
// WAL, with the seqs the leader gave them, and fans them out to the
// registered queries, exactly as Ingest did on the leader. It requires
// follower mode (ErrNotFollower otherwise — a writable server
// accepting replicated records would interleave two write sources in
// one log) and a WAL. The events' local offsets must equal their
// leader offsets, which holds when the puller requests records from
// the local tail.
func (s *Server) ApplyReplicated(events []event.Event) (int, error) {
	if !s.repl.readOnly.Load() {
		return 0, ErrNotFollower
	}
	if s.wal == nil {
		return 0, ErrNoWAL
	}
	return s.dispatch(slices.Clone(events), true) // the puller reuses its batch slice
}

// ReplicatedQuery is one entry of the leader's query manifest as
// shipped to followers: the spec plus the query's fence seq (Fence)
// and backfill flag (Backfill), which the follower mirrors so both
// nodes evaluate the query over the same records. Entries from older
// leaders carry their fences under the names fenceJSON resolves.
type ReplicatedQuery struct {
	// Spec is the query's registration spec.
	Spec QuerySpec `json:"spec"`
	fenceJSON
}

// ReplicatedQueries renders the registered queries with their fences,
// in registration order — the manifest a follower mirrors.
func (s *Server) ReplicatedQueries() []ReplicatedQuery {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ReplicatedQuery, 0, len(s.order))
	for _, id := range s.order {
		q := s.queries[id]
		out = append(out, ReplicatedQuery{Spec: q.spec, fenceJSON: fenceJSON{Fence: q.fence, Backfill: q.backfill}})
	}
	return out
}

// SyncReplicatedQueries reconciles the follower's registry against the
// leader's manifest: missing queries are registered at the leader's
// fence (catching up from the local WAL), queries the leader no
// longer has are removed. Specs already registered are left running —
// a spec change under the same id is reported as an error, since the
// follower cannot atomically swap a running pipeline. It requires
// follower mode and is idempotent.
func (s *Server) SyncReplicatedQueries(queries []ReplicatedQuery) error {
	if !s.repl.readOnly.Load() {
		return ErrNotFollower
	}
	want := make(map[string]ReplicatedQuery, len(queries))
	for _, rq := range queries {
		want[rq.Spec.ID] = rq
	}

	var errs []error
	for _, info := range s.Queries() {
		rq, ok := want[info.ID]
		if !ok {
			if err := s.removeQueryInternal(info.ID); err != nil && !errors.Is(err, ErrNotFound) {
				errs = append(errs, err)
			}
			continue
		}
		if rq.Spec.Query != info.Query {
			errs = append(errs, fmt.Errorf("server: query %q changed on the leader (%q -> %q); re-seed the follower to adopt it",
				info.ID, info.Query, rq.Spec.Query))
		}
	}

	for _, rq := range queries {
		if _, ok := s.lookup(rq.Spec.ID); ok {
			continue
		}
		fence := rq.fence()
		reg := registration{fence: fence, catchUp: true, replayFrom: fence, backfill: rq.Backfill}
		if _, err := s.addQuery(rq.Spec, reg); err != nil && !errors.Is(err, ErrDuplicate) {
			errs = append(errs, fmt.Errorf("server: replicating query %q: %w", rq.Spec.ID, err))
		}
	}
	return errors.Join(errs...)
}
