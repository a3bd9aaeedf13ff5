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

// catchUp streams the WAL from the first record with seq >= from into
// q's mailbox, then hands the query off to live fan-out under the
// ingest lock, at exactly the record where live delivery takes over.
// It runs as a goroutine registered in s.feeders; live fan-out skips
// the query while q.catchingUp is set. Records are delivered in blocks
// of up to replayBatch events (see feedReplay).
func (s *Server) catchUp(q *queryState, from int64) {
	defer s.feeders.Done()
	r, err := s.wal.ReaderAtSeq(from)
	if err != nil {
		// The reader starts at the oldest record still on disk. The gap
		// is reported, not silently skipped.
		q.recordErr(fmt.Errorf("server: catch-up for query %q: records from seq %d reclaimed by retention; resuming at seq %d",
			q.spec.ID, from, s.wal.FirstSeq()))
	}
	defer func() { r.Close() }()
	locked := false
	defer func() {
		if locked {
			s.ingestMu.Unlock()
		}
	}()
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
			bb.Commit(event.Event{Seq: int(seq), Time: t, Attrs: row})
			lastOff = off
			if bb.Len() >= replayBatch && !s.feedReplay(q, bb.Take(), lastOff) {
				return
			}
		case errors.Is(err, io.EOF):
			// Caught up to the committed tail. The first time, the
			// partial block is flushed outside the ingest lock (a full
			// mailbox must not stall ingest), and the lock is taken so
			// the tail freezes; the records that landed since are read
			// under it. At the frozen tail the query flips live: every
			// record below it came through this feeder, every record
			// from it on comes through live fan-out.
			if bb.Len() > 0 && !s.feedReplay(q, bb.Take(), lastOff) {
				return
			}
			if !locked {
				s.ingestMu.Lock()
				locked = true
				continue
			}
			q.replayLag.Store(0)
			q.catchingUp.Store(false)
			return
		case errors.Is(err, wal.ErrTruncated):
			// Retention reclaimed the segment under the reader; resume
			// at the oldest offset still on disk. The gap is reported,
			// not silently skipped. The pending block precedes the gap,
			// so it is flushed first.
			if bb.Len() > 0 && !s.feedReplay(q, bb.Take(), lastOff) {
				return
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

// feedReplay delivers one block of replayed WAL records into the
// query's mailbox, blocking until the pipeline accepts it; lastOff, the
// WAL offset of the block's final record, updates the replay lag. The
// caller must not reuse the slice after a successful send — the block
// is shared with the pipeline. It returns false when the feeder must
// stop: the query was removed, its pipeline terminated, the server
// began draining, or it was closed. The query's admission policy is
// deliberately ignored — replay is sequential and self-paced, so
// backpressure (not shedding) is always correct here.
func (s *Server) feedReplay(q *queryState, batch []event.Event, lastOff int64) bool {
	select {
	case q.mailbox <- event.Block{Events: batch}:
		q.replayLag.Store(max(s.wal.NextOffset()-lastOff-1, 0))
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
