// Package wal implements a durable, append-only event log for the
// serving layer: admitted events are framed with CRC32C checksums and
// appended to size-rotated segment files, so a restarted server can
// replay the suffix of its own input instead of depending on the
// upstream re-delivering events, and a newly registered query can
// backfill from retained history.
//
// Offsets are dense: the record appended n-th over the log's lifetime
// has offset firstEverOffset+n, and each segment file is named after
// the offset of its first record. Each record also carries its seq,
// the stream position the server numbered it with (see record.go);
// readers position by either. Crash recovery truncates a torn tail in
// the newest segment without touching earlier records.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

// FsyncPolicy selects when appended records are flushed to stable
// storage.
type FsyncPolicy int

// Fsync policies, ordered from most to least durable.
const (
	// FsyncAlways fsyncs after every append batch. No acknowledged
	// event is lost on power failure; slowest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer (Options.FsyncInterval).
	// Bounds loss on power failure to one interval; process crashes
	// (panic, SIGKILL) lose nothing because the OS still holds the
	// written pages.
	FsyncInterval
	// FsyncNever leaves flushing entirely to the OS.
	FsyncNever
)

// ParseFsyncPolicy maps the flag spellings "always", "interval" and
// "never" to their policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// String renders the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options configures a Log. Dir and Schema are required.
type Options struct {
	// Dir is the segment directory; created if absent.
	Dir string
	// Schema types the encoded events. A log replays only through the
	// schema it was written with; Open rejects segments written under a
	// different one.
	Schema *event.Schema
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 64 MiB).
	SegmentBytes int64
	// Fsync selects the flush policy (default FsyncAlways, the zero value).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// RetainBytes deletes the oldest sealed segments once the log
	// exceeds this total size. Zero keeps everything.
	RetainBytes int64
	// RetainAge deletes sealed segments whose newest record is older
	// than this. Zero keeps everything.
	RetainAge time.Duration
	// UnshippedCapBytes bounds how many bytes of sealed segments the
	// replication retention floor (SetRetentionFloor) may hold back
	// from reclamation. Beyond the cap the oldest unshipped segments
	// are reclaimed anyway — logged loudly through Logf — so a dead
	// follower degrades replication instead of filling the disk or
	// blocking ingest. Zero never overrides the floor.
	UnshippedCapBytes int64
	// Logf, when non-nil, receives the log's operational warnings
	// (e.g. unshipped segments reclaimed over the cap). Defaults to
	// the standard library logger.
	Logf func(format string, args ...interface{})
	// FS overrides the filesystem the log talks to; tests inject
	// faulty implementations here. Nil means the real one (DefaultFS).
	FS FileSystem
	// Registry receives append/segment metrics when non-nil.
	Registry *obs.Registry
}

// segment describes one sealed (read-only) segment file.
type segment struct {
	base   int64 // offset of the first record
	count  int64 // number of records
	seq    int64 // seq of the first record
	legacy bool  // records carry no seq: each one's seq is its offset
	path   string
	size   int64
	mtime  time.Time
}

// Log is an append-only segmented event log. Appends are serialized;
// any number of Readers may stream concurrently with appends.
type Log struct {
	opt Options
	fs  FileSystem

	mu      sync.Mutex
	sealed  []segment
	active  File
	actPath string
	actBase int64
	actSize int64
	actN    int64 // records in the active segment
	actSeq  int64 // seq of the active segment's first record (actN > 0)
	// actLegacy marks an active segment recovered from before records
	// carried their seq; the next append rotates out of it.
	actLegacy bool
	scratch   []byte
	pbuf      []byte
	closed    bool
	// failed is the first write-path error; once set, every further
	// append is refused with it (fail-stop). A partially written batch
	// may sit on disk as a torn tail, which the next Open truncates —
	// fail-stop guarantees nothing is appended after the tear.
	failed error

	next  atomic.Int64 // next offset to assign; offsets below are readable
	first atomic.Int64 // oldest retained offset
	size  atomic.Int64 // total bytes across all segments
	segs  atomic.Int64 // segment count
	dirty atomic.Bool  // unsynced writes pending (interval policy)
	// floor is the replication retention floor: the follower has
	// acknowledged offsets below it, so sealed segments reaching it or
	// beyond are held back from reclamation. -1 means no follower has
	// ever acknowledged (retention unconstrained).
	floor atomic.Int64
	// epoch is the fencing epoch persisted in the log's manifest.
	epoch atomic.Int64
	// lastSeq is the highest seq appended or recovered (-1 when none).
	lastSeq atomic.Int64

	stop chan struct{}
	done chan struct{}

	mAppends            *obs.Counter
	mBytes              *obs.Counter
	mSyncs              *obs.Counter
	mRotations          *obs.Counter
	mReclaimed          *obs.Counter
	mTruncated          *obs.Counter
	mUnshippedReclaimed *obs.Counter
	mLatency            *obs.Histogram
}

// segName renders the file name of the segment whose first record has
// the given offset.
func segName(base int64) string { return fmt.Sprintf("%016x.wal", base) }

// Open opens (or creates) the log in opt.Dir, recovering from a torn
// tail by truncating the newest segment back to its last intact
// record. Of earlier segments only the header and first record are
// read; per-record CRCs still catch silent corruption at read time.
func Open(opt Options) (*Log, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opt.Schema == nil {
		return nil, fmt.Errorf("wal: Options.Schema is required")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	if opt.FsyncInterval <= 0 {
		opt.FsyncInterval = 100 * time.Millisecond
	}
	if opt.FS == nil {
		opt.FS = DefaultFS()
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	if err := opt.FS.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opt: opt, fs: opt.FS, stop: make(chan struct{}), done: make(chan struct{})}
	l.floor.Store(-1)
	l.lastSeq.Store(-1)
	l.registerMetrics()
	if err := l.loadManifest(); err != nil {
		return nil, err
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if opt.Fsync == FsyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

// recover scans opt.Dir, rebuilds the segment table, truncates any
// torn tail in the newest segment, and opens it for appending.
func (l *Log) recover() (err error) {
	names, err := l.fs.Glob(filepath.Join(l.opt.Dir, "*.wal"))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names) // fixed-width hex names sort by base offset

	type scanned struct {
		base int64
		path string
		size int64
	}
	var files []scanned
	for _, path := range names {
		var base int64
		if _, err := fmt.Sscanf(filepath.Base(path), "%016x.wal", &base); err != nil {
			return fmt.Errorf("wal: unrecognized segment name %q", path)
		}
		fi, err := l.fs.Stat(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		files = append(files, scanned{base: base, path: path, size: fi.Size()})
	}

	if len(files) == 0 {
		return l.createSegment(0)
	}

	// A crash between creating a new segment and committing its first
	// record leaves a torn or empty header at the tail, holding no
	// acknowledged record: it is dropped and its predecessor, which
	// holds the newest record, appended to. So is an empty legacy
	// segment, which no append may extend.
	var tail tailScan
	for {
		last := files[len(files)-1]
		tail, err = l.scanTail(last.path, last.base)
		if errors.Is(err, errSchemaMismatch) {
			return err
		}
		if err == nil && (tail.count > 0 || len(files) == 1 && !tail.legacy) {
			break
		}
		if err != nil {
			l.mTruncated.Inc()
		}
		if err := l.fs.Remove(last.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if len(files) == 1 {
			if err == nil {
				// An empty legacy segment: its predecessors' seqs were
				// their offsets.
				l.lastSeq.Store(last.base - 1)
			}
			return l.createSegment(last.base)
		}
		files = files[:len(files)-1]
	}

	// Seal everything but the last file. Sealed record counts are
	// implied by the next segment's base offset.
	for i := 0; i < len(files)-1; i++ {
		f := files[i]
		seq, legacy, err := l.firstSeq(f.path)
		if err != nil {
			return fmt.Errorf("wal: sealed segment %s: %w", f.path, err)
		}
		fi, _ := l.fs.Stat(f.path)
		l.sealed = append(l.sealed, segment{
			base:   f.base,
			count:  files[i+1].base - f.base,
			seq:    seq,
			legacy: legacy,
			path:   f.path,
			size:   f.size,
			mtime:  fi.ModTime(),
		})
		l.size.Add(f.size)
	}

	last := files[len(files)-1]
	f, err := l.fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.active, l.actPath, l.actBase, l.actN, l.actSize = f, last.path, last.base, tail.count, fi.Size()
	l.actSeq, l.actLegacy = tail.first, tail.legacy
	l.size.Add(fi.Size())
	l.first.Store(files[0].base)
	l.next.Store(last.base + tail.count)
	l.segs.Store(int64(len(l.sealed)) + 1)
	if tail.count > 0 {
		l.lastSeq.Store(tail.last)
	}
	return nil
}

// firstSeq reads the header and first record of a sealed segment and
// returns that record's seq and whether the segment is legacy.
func (l *Log) firstSeq(path string) (int64, bool, error) {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	base, _, tagged, err := readHeader(f, l.opt.Schema)
	if err != nil {
		return 0, false, err
	}
	payload, err := readFrame(f, nil)
	if err != nil {
		return 0, false, fmt.Errorf("wal: first record: %w", err)
	}
	seq, _, err := splitRecord(payload, tagged, base)
	return seq, !tagged, err
}

// tailScan is what scanTail learns of the newest segment.
type tailScan struct {
	count       int64 // intact records
	first, last int64 // seqs of the first and last of them
	legacy      bool
}

// scanTail walks the frames of the segment at path, truncating the
// file after the last intact record. An unreadable header is returned
// as an error without modifying the file.
func (l *Log) scanTail(path string, wantBase int64) (tailScan, error) {
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return tailScan{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	base, hdrSize, tagged, err := readHeader(f, l.opt.Schema)
	if err != nil {
		return tailScan{}, err
	}
	if base != wantBase {
		return tailScan{}, fmt.Errorf("wal: segment %s declares base %d", path, base)
	}
	ts := tailScan{legacy: !tagged}
	good := hdrSize
	buf := make([]byte, 0, 256)
	for {
		payload, err := readFrame(f, buf)
		if err == io.EOF {
			// The file ended exactly on a record boundary.
			return ts, nil
		}
		var seq int64
		if err == nil {
			var body []byte
			if seq, body, err = splitRecord(payload, tagged, base+ts.count); err == nil {
				_, err = decodeEventBody(body, l.opt.Schema, nil)
			}
		}
		if err != nil {
			// Torn or corrupt tail (stray bytes shorter than a frame
			// included): drop it and everything after.
			l.mTruncated.Inc()
			if terr := f.Truncate(good); terr != nil {
				return tailScan{}, fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			return ts, nil
		}
		if ts.count == 0 {
			ts.first = seq
		}
		ts.last = seq
		good += frameSize + int64(len(payload))
		ts.count++
		buf = payload[:0]
	}
}

// createSegment creates and activates a fresh segment starting at
// base. Callers must not hold l.mu during Open; afterwards it is
// called with l.mu held (rotate).
func (l *Log) createSegment(base int64) error {
	path := filepath.Join(l.opt.Dir, segName(base))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := encodeHeader(l.opt.Schema, base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.opt.Fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.active, l.actPath, l.actBase, l.actN, l.actSize = f, path, base, 0, int64(len(hdr))
	l.actLegacy = false
	l.size.Add(int64(len(hdr)))
	l.segs.Add(1)
	if l.first.Load() == 0 && l.next.Load() == 0 {
		l.first.Store(base)
	}
	if l.next.Load() < base {
		l.next.Store(base)
	}
	return nil
}

// Append appends a single event. See AppendBatch.
func (l *Log) Append(e event.Event) (int64, error) {
	return l.AppendBatch([]event.Event{e})
}

// AppendBatch appends events as one write, returning the offset
// assigned to the first. Offsets are contiguous, so events[i] has
// offset first+i. Each event's Seq is persisted with its record, and
// LastSeq advances to the batch's last; seqs must increase along the
// log for ReaderAtSeq to find them. Once AppendBatch returns, the
// records are visible to readers (and, under FsyncAlways, on stable
// storage).
func (l *Log) AppendBatch(events []event.Event) (first int64, err error) {
	if len(events) == 0 {
		return l.next.Load(), nil
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed, refusing appends: %w", l.failed)
	}
	rotated := l.actN > 0 && (l.actSize >= l.opt.SegmentBytes || l.actLegacy)
	if rotated {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	buf := l.scratch[:0]
	for i := range events {
		l.pbuf = EncodeEvent(l.pbuf[:0], l.opt.Schema, &events[i])
		buf = appendFrame(buf, l.pbuf)
	}
	l.scratch = buf[:0]
	if _, err := l.active.Write(buf); err != nil {
		// The write may have landed partially: the on-disk tail is torn
		// past the last acknowledged record. Fail-stop so nothing is
		// appended after the tear; the next Open truncates it away and
		// recovers every acknowledged record.
		err = fmt.Errorf("wal: %w", err)
		l.failLocked(err)
		return 0, err
	}
	if l.opt.Fsync == FsyncAlways {
		if err := l.active.Sync(); err != nil {
			// The write is in the page cache but not durable; under the
			// "always" contract it was never acknowledged. Fail-stop for
			// the same torn-tail reason as a failed write.
			err = fmt.Errorf("wal: %w", err)
			l.failLocked(err)
			return 0, err
		}
		l.mSyncs.Inc()
	} else {
		l.dirty.Store(true)
	}
	first = l.actBase + l.actN
	if l.actN == 0 {
		l.actSeq = int64(events[0].Seq)
	}
	l.actN += int64(len(events))
	l.actSize += int64(len(buf))
	l.size.Add(int64(len(buf)))
	l.next.Store(l.actBase + l.actN)
	if s := int64(events[len(events)-1].Seq); s > l.lastSeq.Load() {
		l.lastSeq.Store(s)
	}
	if rotated {
		// Retention runs once the new segment holds a record, so no
		// crash leaves a log without the record LastSeq recovers from.
		l.applyRetentionLocked()
	}
	l.mAppends.Add(int64(len(events)))
	l.mBytes.Add(int64(len(buf)))
	l.mLatency.Observe(time.Since(start).Seconds())
	return first, nil
}

// rotateLocked seals the active segment and starts a new one. Caller
// holds l.mu.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.mSyncs.Inc()
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.sealed = append(l.sealed, segment{
		base:   l.actBase,
		count:  l.actN,
		seq:    l.actSeq,
		legacy: l.actLegacy,
		path:   l.actPath,
		size:   l.actSize,
		mtime:  time.Now(),
	})
	if err := l.createSegment(l.actBase + l.actN); err != nil {
		return err
	}
	l.mRotations.Inc()
	return nil
}

// applyRetentionLocked deletes the oldest sealed segments that exceed
// the size budget or the age limit. The active segment is never
// deleted, and neither — up to Options.UnshippedCapBytes — is a
// sealed segment the replication floor still needs (records the
// follower has not acknowledged). Caller holds l.mu.
func (l *Log) applyRetentionLocked() {
	if l.opt.RetainBytes <= 0 && l.opt.RetainAge <= 0 {
		return
	}
	cutoff := time.Time{}
	if l.opt.RetainAge > 0 {
		cutoff = time.Now().Add(-l.opt.RetainAge)
	}
	for len(l.sealed) > 0 {
		oldest := l.sealed[0]
		overSize := l.opt.RetainBytes > 0 && l.size.Load() > l.opt.RetainBytes
		tooOld := !cutoff.IsZero() && oldest.mtime.Before(cutoff)
		if !overSize && !tooOld {
			return
		}
		if floor := l.floor.Load(); floor >= 0 && oldest.base+oldest.count > floor {
			// The follower has not acknowledged this segment yet. Hold it
			// back — unless the unshipped backlog breaches the hard cap,
			// in which case reclaim it loudly rather than filling the
			// disk or blocking ingest; the follower will observe an
			// ErrTruncated gap and report it.
			if l.opt.UnshippedCapBytes <= 0 || l.retainedUnshippedLocked() <= l.opt.UnshippedCapBytes {
				return
			}
			l.mUnshippedReclaimed.Add(oldest.count)
			l.opt.Logf("wal: unshipped backlog exceeds cap %d bytes; reclaiming segment %s (offsets %d-%d) the follower never acknowledged",
				l.opt.UnshippedCapBytes, filepath.Base(oldest.path), oldest.base, oldest.base+oldest.count-1)
		}
		if err := l.fs.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			return // try again next rotation
		}
		l.sealed = l.sealed[1:]
		l.size.Add(-oldest.size)
		l.segs.Add(-1)
		l.mReclaimed.Add(oldest.count)
		if len(l.sealed) > 0 {
			l.first.Store(l.sealed[0].base)
		} else {
			l.first.Store(l.actBase)
		}
	}
}

// Sync flushes buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.failed != nil || !l.dirty.Swap(false) {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		err = fmt.Errorf("wal: %w", err)
		l.failLocked(err)
		return err
	}
	l.mSyncs.Inc()
	return nil
}

// failLocked records the log's first write-path error; every further
// append is refused with it. Caller holds l.mu.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = err
		l.opt.Logf("wal: entering fail-stop after write error: %v", err)
	}
}

// Err returns the error that put the log into fail-stop mode, or nil
// while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// syncLoop drives the FsyncInterval policy.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			_ = l.syncLocked()
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// NextOffset returns the offset the next appended record will get;
// offsets below it are readable (subject to retention).
func (l *Log) NextOffset() int64 { return l.next.Load() }

// FirstOffset returns the oldest retained offset. A log that has never
// reclaimed a segment returns the offset of its first-ever record.
func (l *Log) FirstOffset() int64 { return l.first.Load() }

// LastSeq returns the highest seq appended or recovered, -1 when the
// log has never held a record.
func (l *Log) LastSeq() int64 { return l.lastSeq.Load() }

// FirstSeq returns the seq of the oldest retained record, or
// LastSeq()+1 when the log holds none.
func (l *Log) FirstSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case len(l.sealed) > 0:
		return l.sealed[0].seq
	case l.actN > 0:
		return l.actSeq
	}
	return l.lastSeq.Load() + 1
}

// Legacy reports whether the log retains segments written before
// records carried their seq, whose records' seq is their offset.
// Legacy segments only ever precede the tagged ones.
func (l *Log) Legacy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.actLegacy || len(l.sealed) > 0 && l.sealed[0].legacy
}

// SizeBytes returns the total on-disk size across all segments.
func (l *Log) SizeBytes() int64 { return l.size.Load() }

// Segments returns the number of on-disk segment files.
func (l *Log) Segments() int64 { return l.segs.Load() }

// Close flushes and closes the log. Concurrent readers fail on their
// next segment open; in-flight reads of open files are unaffected.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}

// registerMetrics wires the log's gauges and counters into the
// registry, if any.
func (l *Log) registerMetrics() {
	r := l.opt.Registry
	if r == nil {
		r = obs.NewRegistry() // throwaway sink; keeps the hot path nil-free
	}
	l.mAppends = r.Counter("ses_wal_appends_total", "Events appended to the WAL.")
	l.mBytes = r.Counter("ses_wal_bytes_total", "Bytes appended to the WAL (including framing).")
	l.mSyncs = r.Counter("ses_wal_syncs_total", "fsync calls issued by the WAL.")
	l.mRotations = r.Counter("ses_wal_rotations_total", "Segment rotations.")
	l.mReclaimed = r.Counter("ses_wal_reclaimed_total", "Records deleted by retention.")
	l.mTruncated = r.Counter("ses_wal_truncations_total", "Torn tails discarded during recovery.")
	l.mUnshippedReclaimed = r.Counter("ses_wal_unshipped_reclaimed_total",
		"Records reclaimed past the replication floor because the unshipped backlog breached its cap.")
	l.mLatency = r.Histogram("ses_wal_append_seconds", "Append latency (batch, including fsync when policy=always).",
		[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	if l.opt.Registry != nil {
		r.GaugeFunc("ses_wal_segments", "Segment files on disk.", l.Segments)
		r.GaugeFunc("ses_wal_size_bytes", "Total WAL size on disk.", l.SizeBytes)
		r.GaugeFunc("ses_wal_first_offset", "Oldest retained offset.", l.FirstOffset)
		r.GaugeFunc("ses_wal_next_offset", "Offset the next appended event will receive.", l.NextOffset)
		r.GaugeFunc("ses_wal_retained_unshipped_bytes",
			"Bytes in sealed segments not yet acknowledged by a follower (0 with no follower).",
			l.RetainedUnshippedBytes)
		r.GaugeFunc("ses_wal_epoch", "Fencing epoch persisted in the WAL manifest.", l.Epoch)
	}
}

// SetRetentionFloor records the follower's acknowledged position:
// every offset below ack has been durably applied by the follower, so
// sealed segments that still hold records at or past ack are excluded
// from retention (up to Options.UnshippedCapBytes). Floors only move
// forward; a stale or smaller ack is ignored.
func (l *Log) SetRetentionFloor(ack int64) {
	for {
		cur := l.floor.Load()
		if ack <= cur {
			return
		}
		if l.floor.CompareAndSwap(cur, ack) {
			return
		}
	}
}

// RetentionFloor returns the current replication floor, -1 when no
// follower has ever acknowledged.
func (l *Log) RetentionFloor() int64 { return l.floor.Load() }

// retainedUnshippedLocked sums the sizes of sealed segments holding
// records the follower has not acknowledged. Caller holds l.mu.
func (l *Log) retainedUnshippedLocked() int64 {
	floor := l.floor.Load()
	if floor < 0 {
		return 0
	}
	var total int64
	for _, s := range l.sealed {
		if s.base+s.count > floor {
			total += s.size
		}
	}
	return total
}

// RetainedUnshippedBytes reports the bytes in sealed segments not yet
// acknowledged by a follower — the ses_wal_retained_unshipped_bytes
// gauge. It is 0 until a follower acknowledges for the first time.
func (l *Log) RetainedUnshippedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retainedUnshippedLocked()
}

// walManifest is the small JSON document persisted next to the
// segments. It carries state that must survive restarts but is not a
// log record — today only the fencing epoch.
type walManifest struct {
	Epoch int64 `json:"epoch"`
}

// manifestName is the manifest's file name inside the log directory.
const manifestName = "manifest.json"

// loadManifest reads the fencing epoch from the log's manifest; a
// missing manifest means epoch 0 (a log that has never been fenced).
func (l *Log) loadManifest() error {
	data, err := l.fs.ReadFile(filepath.Join(l.opt.Dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: reading manifest: %w", err)
	}
	var m walManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("wal: parsing manifest: %w", err)
	}
	if m.Epoch < 0 {
		return fmt.Errorf("wal: manifest declares negative epoch %d", m.Epoch)
	}
	l.epoch.Store(m.Epoch)
	return nil
}

// Epoch returns the fencing epoch persisted in the log's manifest.
// Promotion bumps it; a node whose peer holds a higher epoch must
// refuse writes (it has been fenced off).
func (l *Log) Epoch() int64 { return l.epoch.Load() }

// SetEpoch persists a new fencing epoch. Epochs are monotonic: an
// attempt to lower the epoch fails, persisting the current epoch
// again is a no-op. The manifest is replaced atomically (write to a
// temp file, rename), so a crash mid-update keeps the old epoch.
func (l *Log) SetEpoch(e int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.epoch.Load()
	if e < cur {
		return fmt.Errorf("wal: fencing epoch is monotonic: cannot lower %d to %d", cur, e)
	}
	if e == cur {
		return nil
	}
	data, err := json.Marshal(walManifest{Epoch: e})
	if err != nil {
		return err
	}
	path := filepath.Join(l.opt.Dir, manifestName)
	tmp := path + ".tmp"
	if err := l.fs.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("wal: persisting epoch: %w", err)
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: persisting epoch: %w", err)
	}
	l.epoch.Store(e)
	return nil
}
