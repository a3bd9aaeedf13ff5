package server

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/event"
	"repro/internal/wal"
)

// ErrNoWAL rejects a backfill registration on a server running without
// a WAL (Config.WALDir empty): there is no retained history to replay.
var ErrNoWAL = errors.New("server: backfill requires a WAL (start the server with a WAL directory)")

// replayBatch is the catch-up feeder's block size: WAL records are
// accumulated into event blocks of this many events before delivery,
// so replay pays one mailbox send — and the pipeline one channel
// receive — per block instead of per event.
const replayBatch = 256

// catchUp streams WAL records [from, tail) into q's mailbox, then
// hands the query off to live fan-out under the ingest lock, at
// exactly the offset where live delivery takes over. It runs as a
// goroutine registered in s.feeders; live fan-out skips the query
// while q.catchingUp is set. Records are delivered in blocks of up to
// replayBatch events (see feedReplay). Records whose sequence number
// is at or below skipSeq are read past without delivery: under an
// explicit-seq log a checkpoint watermark is a sequence number, not a
// replay offset, so resumption filters by sequence instead of
// advancing the reader (pass -1 to deliver everything).
func (s *Server) catchUp(q *queryState, from, skipSeq int64) {
	defer s.feeders.Done()
	r := s.wal.NewReader(from)
	defer r.Close()
	// Replayed rows are decoded straight into a shared block arena:
	// one value allocation per chunk of rows instead of one per event
	// (NextInto + BlockBuilder), with each delivered block cut loose
	// by Take so the pipeline owns it exclusively.
	bb := event.NewBlockBuilder(s.cfg.Schema.NumFields(), replayBatch)
	lastOff := int64(-1)
	for {
		row := bb.Row()
		off, seq, t, err := r.NextInto(row)
		switch {
		case err == nil:
			if seq <= skipSeq {
				continue
			}
			bb.Commit(event.Event{Seq: int(seq), Time: t, Attrs: row})
			lastOff = off
			if bb.Len() >= replayBatch {
				if !s.feedReplay(q, bb.Take(), lastOff) {
					return
				}
			}
		case errors.Is(err, io.EOF):
			// Caught up to the committed tail. Flush the partial block
			// outside the ingest lock (a full mailbox must not stall
			// ingest), then take the lock so the tail freezes, drain the
			// last few records that landed since the EOF, and flip the
			// query live: every offset below the frozen tail came through
			// this feeder, every offset from it on comes through live
			// fan-out.
			if bb.Len() > 0 {
				if !s.feedReplay(q, bb.Take(), lastOff) {
					return
				}
			}
			s.ingestMu.Lock()
			for {
				row := bb.Row()
				off, seq, t, err := r.NextInto(row)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					q.recordErr(fmt.Errorf("server: catch-up for query %q: %w", q.spec.ID, err))
					q.catchingUp.Store(false)
					s.ingestMu.Unlock()
					return
				}
				if seq <= skipSeq {
					continue
				}
				bb.Commit(event.Event{Seq: int(seq), Time: t, Attrs: row})
				lastOff = off
			}
			if bb.Len() > 0 && !s.feedReplay(q, bb.Take(), lastOff) {
				s.ingestMu.Unlock()
				return
			}
			q.replayLag.Store(0)
			q.catchingUp.Store(false)
			s.ingestMu.Unlock()
			return
		case errors.Is(err, wal.ErrTruncated):
			// Retention reclaimed the segment under the reader; resume
			// at the oldest offset still on disk. The gap is reported,
			// not silently skipped. The pending block precedes the gap,
			// so it is flushed first.
			if bb.Len() > 0 {
				if !s.feedReplay(q, bb.Take(), lastOff) {
					return
				}
			}
			first := s.wal.FirstOffset()
			q.recordErr(fmt.Errorf("server: catch-up for query %q: offsets %d-%d reclaimed by retention; resuming at %d",
				q.spec.ID, r.Offset(), first-1, first))
			r.Close()
			r = s.wal.NewReader(first)
		default:
			q.recordErr(fmt.Errorf("server: catch-up for query %q: %w", q.spec.ID, err))
			q.catchingUp.Store(false)
			return
		}
	}
}

// feedReplay delivers one block of replayed WAL records (Seq already
// stamped; lastOff is the WAL offset of the block's final record)
// into the query's mailbox, blocking until the pipeline accepts it.
// The caller must not reuse the slice after a successful send — the
// block is shared with the pipeline. It returns false when the feeder
// must stop: the query was removed, its pipeline terminated, the
// server began draining, or it was closed. The query's admission
// policy is deliberately ignored — replay is sequential and
// self-paced, so backpressure (not shedding) is always correct here.
func (s *Server) feedReplay(q *queryState, batch []event.Event, lastOff int64) bool {
	last := lastOff
	select {
	case q.mailbox <- event.Block{Events: batch}:
		q.lastFed.Store(last)
		if lag := s.wal.NextOffset() - last - 1; lag > 0 {
			q.replayLag.Store(lag)
		} else {
			q.replayLag.Store(0)
		}
		q.events.Add(int64(len(batch)))
		s.replayEvents.Add(int64(len(batch)))
		return true
	case <-q.removed:
	case <-q.finished:
		// Pipeline dead: flip live so fan-out takes the normal path
		// (which sheds against the finished channel).
		q.catchingUp.Store(false)
	case <-s.drainStarted:
	case <-s.ctx.Done():
	}
	return false
}
