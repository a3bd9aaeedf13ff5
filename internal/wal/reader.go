package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/event"
)

// ErrTruncated reports that a requested position has been reclaimed
// by retention; the caller's earliest option is Log.FirstOffset.
var ErrTruncated = errors.New("wal: offset reclaimed by retention")

// Reader streams records from a Log in offset order. It chases the
// tail: Next returns io.EOF when it has consumed every committed
// record, and succeeds again after more appends — io.EOF is a
// retryable "up to date" signal, not a terminal state. A Reader is not
// safe for concurrent use, but any number of Readers may run alongside
// a writer.
type Reader struct {
	l   *Log
	off int64 // offset of the next record to read
	// min is the lowest seq returned: a Reader built by ReaderAtSeq
	// reads past the records before its target.
	min    int64
	tagged bool // the open segment's records carry their seq
	file   File
	buf    []byte
}

// NewReader returns a Reader positioned at offset from. Positions at
// or past the tail are valid — the Reader waits there for future
// appends. Offsets below FirstOffset fail with ErrTruncated at the
// first Next.
func (l *Log) NewReader(from int64) *Reader {
	if from < 0 {
		from = 0
	}
	return &Reader{l: l, off: from, buf: make([]byte, 0, 256)}
}

// ReaderAtSeq returns a Reader positioned at the first record whose
// seq is at least s, by a search over the segments' first seqs and a
// linear skip within the segment found. Past the tail the Reader waits
// for the first such record to be appended. When s lies below the
// oldest retained record and retention has reclaimed a prefix of the
// log, records at or above s may be gone: the Reader then starts at the
// oldest retained record and the error is ErrTruncated.
func (l *Log) ReaderAtSeq(s int64) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	from, err := l.first.Load(), error(nil)
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].seq > s })
	switch {
	case l.actN > 0 && l.actSeq <= s:
		from = l.actBase
	case i > 0:
		from = l.sealed[i-1].base
	case from > 0:
		err = ErrTruncated
	}
	r := l.NewReader(from)
	r.min = s
	return r, err
}

// Offset returns the offset of the next record Next will read.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next committed record and its offset. io.EOF means
// the reader is caught up with the writer (retry later); ErrTruncated
// means the offset was reclaimed by retention; any other error is
// corruption or I/O failure.
func (r *Reader) Next() (int64, event.Event, error) {
	attrs := make([]event.Value, r.l.opt.Schema.NumFields())
	off, seq, t, err := r.NextInto(attrs)
	if err != nil {
		return 0, event.Event{}, err
	}
	return off, event.Event{Seq: int(seq), Time: t, Attrs: attrs}, nil
}

// NextInto is Next decoding the record's attribute values into the
// caller-provided slice (len == schema fields, or nil to skip
// attribute materialization), avoiding the per-record allocation:
// batch replay cuts rows from a shared block arena instead of
// re-boxing every event. It returns the record's offset and seq.
func (r *Reader) NextInto(attrs []event.Value) (int64, int64, event.Time, error) {
	for {
		if r.off >= r.l.NextOffset() {
			return 0, 0, 0, io.EOF
		}
		if r.off < r.l.FirstOffset() && r.file == nil {
			return 0, 0, 0, ErrTruncated
		}
		if r.file == nil {
			if err := r.open(); err != nil {
				return 0, 0, 0, err
			}
		}
		payload, err := readFrame(r.file, r.buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// End of this segment file. The committed tail is beyond
			// r.off, so the record lives in a newer segment (rotation
			// happened); reopen at the current offset. A short frame at
			// a sealed boundary reads as UnexpectedEOF, hence both.
			r.Close()
			continue
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("record %d: %w", r.off, err)
		}
		r.buf = payload[:0]
		seq, body, err := splitRecord(payload, r.tagged, r.off)
		if err == nil && seq < r.min {
			r.off++
			continue
		}
		var t event.Time
		if err == nil {
			t, err = decodeEventBody(body, r.l.opt.Schema, attrs)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("record %d: %w", r.off, err)
		}
		off := r.off
		r.off++
		return off, seq, t, nil
	}
}

// open locates the segment containing r.off, opens it, and skips
// forward to the record. Skipping is linear in records-per-segment and
// happens only on open and at rotation boundaries.
func (r *Reader) open() error {
	path, base, err := r.l.segmentFor(r.off)
	if err != nil {
		return err
	}
	f, err := r.l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			// Reclaimed between segmentFor and open.
			return ErrTruncated
		}
		return fmt.Errorf("wal: %w", err)
	}
	if _, _, r.tagged, err = readHeader(f, r.l.opt.Schema); err != nil {
		f.Close()
		return err
	}
	for skip := r.off - base; skip > 0; skip-- {
		payload, err := readFrame(f, r.buf)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: seeking to record %d in %s: %w", r.off, path, err)
		}
		r.buf = payload[:0]
	}
	r.file = f
	return nil
}

// Close releases the reader's file handle. The Reader remains usable;
// the next call to Next reopens at its current offset.
func (r *Reader) Close() {
	if r.file != nil {
		r.file.Close()
		r.file = nil
	}
}

// segmentFor returns the path and base offset of the segment holding
// off.
func (l *Log) segmentFor(off int64) (string, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off >= l.actBase {
		if off >= l.actBase+l.actN {
			return "", 0, io.EOF
		}
		return l.actPath, l.actBase, nil
	}
	for i := len(l.sealed) - 1; i >= 0; i-- {
		s := l.sealed[i]
		if off >= s.base {
			if off >= s.base+s.count {
				return "", 0, fmt.Errorf("wal: offset %d falls in a gap after segment %s", off, s.path)
			}
			return s.path, s.base, nil
		}
	}
	return "", 0, ErrTruncated
}
