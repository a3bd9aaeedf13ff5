package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

func testSchema(t testing.TB) *event.Schema {
	t.Helper()
	s, err := event.NewSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
		event.Field{Name: "V", Type: event.TypeFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkEvent(i int) event.Event {
	return event.Event{
		Time:  event.Time(i * 10),
		Attrs: []event.Value{event.Int(int64(i)), event.String(fmt.Sprintf("l%d", i%5)), event.Float(float64(i) / 3)},
	}
}

func mustOpen(t *testing.T, opt Options) *Log {
	t.Helper()
	l, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	batch := make([]event.Event, 0, n)
	for i := from; i < from+n; i++ {
		batch = append(batch, mkEvent(i))
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, l *Log, from int64) []event.Event {
	t.Helper()
	r := l.NewReader(from)
	defer r.Close()
	var out []event.Event
	for {
		off, e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next at offset %d: %v", r.Offset(), err)
		}
		if off != from+int64(len(out)) {
			t.Fatalf("offset %d, want %d", off, from+int64(len(out)))
		}
		out = append(out, e)
	}
}

func checkEvents(t *testing.T, got []event.Event, from, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("read %d events, want %d", len(got), n)
	}
	for i, e := range got {
		want := mkEvent(from + i)
		if e.Time != want.Time || !e.Attrs[0].Equal(want.Attrs[0]) ||
			!e.Attrs[1].Equal(want.Attrs[1]) || !e.Attrs[2].Equal(want.Attrs[2]) {
			t.Fatalf("event %d: got %v@%d, want %v@%d", from+i, e.Attrs, e.Time, want.Attrs, want.Time)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever})
	appendN(t, l, 0, 100)
	if got := l.NextOffset(); got != 100 {
		t.Fatalf("NextOffset = %d, want 100", got)
	}
	checkEvents(t, readAll(t, l, 0), 0, 100)
	checkEvents(t, readAll(t, l, 40), 40, 60)
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 512}
	l := mustOpen(t, opt)
	for i := 0; i < 200; i += 10 {
		appendN(t, l, i, 10)
	}
	if l.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	checkEvents(t, readAll(t, l, 0), 0, 200)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, opt)
	if got := l2.NextOffset(); got != 200 {
		t.Fatalf("NextOffset after reopen = %d, want 200", got)
	}
	appendN(t, l2, 200, 50)
	checkEvents(t, readAll(t, l2, 0), 0, 250)
}

func TestTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		chop int64 // bytes to cut from the tail
	}{
		{"mid-record", 3},
		{"mid-header", 6}, // leaves < frameSize bytes of the final frame
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever}
			l := mustOpen(t, opt)
			appendN(t, l, 0, 20)
			l.Close()

			segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
			if len(segs) != 1 {
				t.Fatalf("want 1 segment, got %d", len(segs))
			}
			fi, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segs[0], fi.Size()-tc.chop); err != nil {
				t.Fatal(err)
			}

			l2 := mustOpen(t, opt)
			if got := l2.NextOffset(); got != 19 {
				t.Fatalf("NextOffset after torn tail = %d, want 19", got)
			}
			checkEvents(t, readAll(t, l2, 0), 0, 19)
			// The log must accept appends after recovery.
			appendN(t, l2, 19, 5)
			checkEvents(t, readAll(t, l2, 0), 0, 24)
		})
	}
}

func TestBitFlipDetectedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever}
	l := mustOpen(t, opt)
	appendN(t, l, 0, 10)
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, opt)
	if got := l2.NextOffset(); got != 9 {
		t.Fatalf("NextOffset after bit flip = %d, want 9", got)
	}
	checkEvents(t, readAll(t, l2, 0), 0, 9)
}

func TestTornNewSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 256}
	l := mustOpen(t, opt)
	for i := 0; i < 40; i += 10 {
		appendN(t, l, i, 10)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	// Simulate a crash between creating the newest segment and writing
	// its header: chop the header mid-way.
	last := segs[len(segs)-1]
	if err := os.Truncate(last, 4); err != nil {
		t.Fatal(err)
	}
	base := int64(0)
	fmt.Sscanf(filepath.Base(last), "%016x.wal", &base)

	l2 := mustOpen(t, opt)
	if got := l2.NextOffset(); got != base {
		t.Fatalf("NextOffset = %d, want %d (records of the torn segment discarded)", got, base)
	}
	checkEvents(t, readAll(t, l2, 0), 0, int(base))
	appendN(t, l2, int(base), 5)
	checkEvents(t, readAll(t, l2, 0), 0, int(base)+5)
}

func TestRetentionBySize(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{
		Dir: dir, Schema: testSchema(t), Fsync: FsyncNever,
		SegmentBytes: 512, RetainBytes: 1500,
	})
	for i := 0; i < 500; i += 10 {
		appendN(t, l, i, 10)
	}
	if l.FirstOffset() == 0 {
		t.Fatal("retention never reclaimed a segment")
	}
	if l.SizeBytes() > 1500+512+200 { // budget + one active segment of slack
		t.Fatalf("size %d exceeds retention budget", l.SizeBytes())
	}
	first := l.FirstOffset()
	checkEvents(t, readAll(t, l, first), int(first), 500-int(first))

	r := l.NewReader(0)
	defer r.Close()
	if _, _, err := r.Next(); err != ErrTruncated {
		t.Fatalf("reading reclaimed offset: err = %v, want ErrTruncated", err)
	}
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{
		Dir: dir, Schema: testSchema(t), Fsync: FsyncNever,
		SegmentBytes: 512, RetainAge: time.Nanosecond,
	})
	for i := 0; i < 100; i += 10 {
		appendN(t, l, i, 10)
		time.Sleep(time.Millisecond)
	}
	if l.FirstOffset() == 0 {
		t.Fatal("age-based retention never reclaimed a segment")
	}
	first := l.FirstOffset()
	checkEvents(t, readAll(t, l, first), int(first), 100-int(first))
}

func TestTailChasingReader(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 256})
	r := l.NewReader(0)
	defer r.Close()
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty log: err = %v, want io.EOF", err)
	}
	total := 0
	for round := 0; round < 10; round++ {
		appendN(t, l, total, 7)
		total += 7
		for {
			off, e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			want := mkEvent(int(off))
			if e.Time != want.Time {
				t.Fatalf("offset %d: time %d, want %d", off, e.Time, want.Time)
			}
		}
		if r.Offset() != int64(total) {
			t.Fatalf("reader at %d after round %d, want %d", r.Offset(), round, total)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 1024})
	const total = 2000
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			r := l.NewReader(0)
			defer r.Close()
			n := int64(0)
			for n < total {
				off, e, err := r.Next()
				if err == io.EOF {
					time.Sleep(time.Microsecond)
					continue
				}
				if err != nil {
					done <- err
					return
				}
				if off != n || e.Attrs[0].Int64() != n {
					done <- fmt.Errorf("offset %d: got event %d, want %d", off, e.Attrs[0].Int64(), n)
					return
				}
				n++
			}
			done <- nil
		}()
	}
	for i := 0; i < total; i += 50 {
		appendN(t, l, i, 50)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			l := mustOpen(t, Options{
				Dir: t.TempDir(), Schema: testSchema(t),
				Fsync: p, FsyncInterval: time.Millisecond,
			})
			appendN(t, l, 0, 10)
			if p == FsyncInterval {
				time.Sleep(20 * time.Millisecond) // let the sync loop run
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			checkEvents(t, readAll(t, l, 0), 0, 10)
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q -> %q", s, p.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever}
	l := mustOpen(t, opt)
	appendN(t, l, 0, 5)
	l.Close()
	other, _ := event.NewSchema(event.Field{Name: "X", Type: event.TypeInt})
	if _, err := Open(Options{Dir: dir, Schema: other, Fsync: FsyncNever}); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever, Registry: reg})
	appendN(t, l, 0, 7)
	if v, ok := reg.Value("ses_wal_appends_total"); !ok || v != 7 {
		t.Fatalf("ses_wal_appends_total = %d (ok=%v), want 7", v, ok)
	}
	if v, ok := reg.Value("ses_wal_next_offset"); !ok || v != 7 {
		t.Fatalf("ses_wal_next_offset = %d (ok=%v), want 7", v, ok)
	}
	if v, ok := reg.Value("ses_wal_segments"); !ok || v != 1 {
		t.Fatalf("ses_wal_segments = %d (ok=%v), want 1", v, ok)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(mkEvent(0)); err == nil {
		t.Fatal("expected error appending to closed log")
	}
}

// Records persist their Seq fields — gaps and all, since a partition
// sees only its slice of the global sequence — restore them on replay,
// and the log recovers LastSeq from the newest retained record on
// reopen. Cluster dedupe of redelivered sub-batches depends on all
// three surviving a restart.
func TestExplicitSeqRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever}
	l := mustOpen(t, opt)
	if got := l.LastSeq(); got != -1 {
		t.Fatalf("LastSeq of empty log = %d, want -1", got)
	}

	seqs := []int{3, 7, 8, 20, 21, 40}
	batch := make([]event.Event, len(seqs))
	for i, sq := range seqs {
		batch[i] = mkEvent(i)
		batch[i].Seq = sq
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 40 {
		t.Fatalf("LastSeq = %d, want 40", got)
	}
	got := readAll(t, l, 0)
	if len(got) != len(seqs) {
		t.Fatalf("read %d events, want %d", len(got), len(seqs))
	}
	for i := range got {
		if got[i].Seq != seqs[i] {
			t.Fatalf("event %d: Seq = %d, want %d", i, got[i].Seq, seqs[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, opt)
	if l2.Legacy() {
		t.Fatal("a log written with per-record seqs reports legacy segments")
	}
	if got := l2.LastSeq(); got != 40 {
		t.Fatalf("LastSeq after reopen = %d, want 40", got)
	}
	tail := mkEvent(6)
	tail.Seq = 55
	if _, err := l2.Append(tail); err != nil {
		t.Fatal(err)
	}
	if got := l2.LastSeq(); got != 55 {
		t.Fatalf("LastSeq after append = %d, want 55", got)
	}
	got = readAll(t, l2, 0)
	want := append(append([]int(nil), seqs...), 55)
	if len(got) != len(want) {
		t.Fatalf("read %d events after reopen, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i] {
			t.Fatalf("event %d after reopen: Seq = %d, want %d", i, got[i].Seq, want[i])
		}
	}
}

// appendSeqs appends one single-record batch per seq, so a small
// SegmentBytes rotates between them.
func appendSeqs(t *testing.T, l *Log, seqs ...int) {
	t.Helper()
	for i, sq := range seqs {
		e := mkEvent(i)
		e.Seq = sq
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

// ReaderAtSeq lands on the first record whose seq is at least the
// target, across segment boundaries and seq gaps, and waits at the
// tail for a target past the last record.
func TestReaderAtSeq(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 64})
	seqs := []int{3, 7, 8, 20, 21, 40}
	appendSeqs(t, l, seqs...)
	if l.Segments() < 3 {
		t.Fatalf("want the records over >= 3 segments, got %d", l.Segments())
	}
	for s := int64(0); s <= 45; s++ {
		r, err := l.ReaderAtSeq(s)
		if err != nil {
			t.Fatalf("ReaderAtSeq(%d): %v", s, err)
		}
		want := -1
		for _, sq := range seqs {
			if int64(sq) >= s {
				want = sq
				break
			}
		}
		_, e, err := r.Next()
		switch {
		case want < 0 && err != io.EOF:
			t.Fatalf("ReaderAtSeq(%d) past the tail: got seq %d, err %v; want io.EOF", s, e.Seq, err)
		case want >= 0 && (err != nil || e.Seq != want):
			t.Fatalf("ReaderAtSeq(%d): got seq %d, err %v; want seq %d", s, e.Seq, err, want)
		}
		r.Close()
	}
	if got := l.FirstSeq(); got != 3 {
		t.Fatalf("FirstSeq = %d, want 3", got)
	}
}

// A target below a prefix reclaimed by retention reports ErrTruncated
// and starts at the oldest retained record; a target at that record
// (where a backfill starts) reports no gap.
func TestReaderAtSeqBelowReclaimedPrefix(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Schema: testSchema(t), Fsync: FsyncNever,
		SegmentBytes: 64, RetainBytes: 200})
	seqs := make([]int, 40)
	for i := range seqs {
		seqs[i] = 10 + 2*i
	}
	appendSeqs(t, l, seqs...)
	if l.FirstOffset() == 0 {
		t.Fatal("retention never reclaimed a segment")
	}
	first := l.FirstSeq()
	if first <= 10 {
		t.Fatalf("FirstSeq = %d after reclamation, want > 10", first)
	}
	r, err := l.ReaderAtSeq(10)
	if err != ErrTruncated {
		t.Fatalf("ReaderAtSeq below the reclaimed prefix: err = %v, want ErrTruncated", err)
	}
	if _, e, err := r.Next(); err != nil || int64(e.Seq) != first {
		t.Fatalf("after ErrTruncated: got seq %d, err %v; want the oldest retained seq %d", e.Seq, err, first)
	}
	r.Close()
	r, err = l.ReaderAtSeq(first)
	if err != nil {
		t.Fatalf("ReaderAtSeq(FirstSeq): %v", err)
	}
	if _, e, err := r.Next(); err != nil || int64(e.Seq) != first {
		t.Fatalf("ReaderAtSeq(FirstSeq): got seq %d, err %v", e.Seq, err)
	}
	r.Close()
}

// A log reopened right after a rotation — the new segment holding only
// its header, as a crash before the first record leaves it — recovers
// LastSeq from the previous segment, even under a retention budget the
// rotation alone would exceed.
func TestReopenAfterRotationKeepsLastSeq(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Schema: testSchema(t), Fsync: FsyncNever, SegmentBytes: 64, RetainBytes: 1}
	l := mustOpen(t, opt)
	appendSeqs(t, l, 5, 9, 12)
	l.mu.Lock()
	if err := l.rotateLocked(); err != nil {
		t.Fatal(err)
	}
	l.mu.Unlock()
	l.Close()

	l2 := mustOpen(t, opt)
	if got := l2.LastSeq(); got != 12 {
		t.Fatalf("LastSeq after reopen = %d, want 12", got)
	}
	if got := l2.FirstSeq(); got != 12 {
		t.Fatalf("FirstSeq after reopen = %d, want 12", got)
	}
}

// legacySegment renders a segment in the format written before
// records carried their seq: the bare schema in the header and
// payloads of time and attributes only.
func legacySegment(schema *event.Schema, base int64, events []event.Event) []byte {
	s := schema.String()
	buf := append([]byte(segMagic), byte(len(s)), byte(len(s)>>8))
	buf = append(buf, s...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	for i := range events {
		payload := EncodeEvent(nil, schema, &events[i])
		_, n := binary.Varint(payload) // drop the seq
		buf = appendFrame(buf, payload[n:])
	}
	return buf
}

// writeLegacyLog writes a two-segment legacy log of n records.
func writeLegacyLog(t testing.TB, dir string, schema *event.Schema, n int) {
	t.Helper()
	var evs []event.Event
	for i := 0; i < n; i++ {
		evs = append(evs, mkEvent(i))
	}
	half := n / 2
	for base, part := range map[int][]event.Event{0: evs[:half], half: evs[half:]} {
		if err := os.WriteFile(filepath.Join(dir, segName(int64(base))), legacySegment(schema, int64(base), part), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A log written before records carried their seq reopens with each
// record's seq equal to its offset; the next append lands in a new
// tagged segment at seq = last offset + 1.
func TestLegacySegmentsReadSeqAsOffset(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	writeLegacyLog(t, dir, schema, 10)
	l := mustOpen(t, Options{Dir: dir, Schema: schema, Fsync: FsyncNever})
	if !l.Legacy() {
		t.Fatal("Legacy() = false over legacy segments")
	}
	if got := l.LastSeq(); got != 9 {
		t.Fatalf("LastSeq = %d, want 9", got)
	}
	got := readAll(t, l, 0)
	checkEvents(t, got, 0, 10)
	for i, e := range got {
		if e.Seq != i {
			t.Fatalf("legacy record %d: Seq = %d, want its offset", i, e.Seq)
		}
	}
	if r, err := l.ReaderAtSeq(7); err != nil {
		t.Fatal(err)
	} else if off, e, err := r.Next(); err != nil || off != 7 || e.Seq != 7 {
		t.Fatalf("ReaderAtSeq(7) on legacy segments: offset %d seq %d err %v", off, e.Seq, err)
	} else {
		r.Close()
	}

	next := mkEvent(10)
	next.Seq = int(l.LastSeq()) + 1
	if off, err := l.Append(next); err != nil || off != 10 {
		t.Fatalf("append after legacy segments: offset %d, err %v", off, err)
	}
	if got := l.Segments(); got != 3 {
		t.Fatalf("Segments = %d, want the append in a third, tagged segment", got)
	}
	l.Close()

	l2 := mustOpen(t, Options{Dir: dir, Schema: schema, Fsync: FsyncNever})
	got = readAll(t, l2, 0)
	checkEvents(t, got, 0, 11)
	if got[10].Seq != 10 || l2.LastSeq() != 10 {
		t.Fatalf("appended record: Seq %d, LastSeq %d; want 10", got[10].Seq, l2.LastSeq())
	}
	hdr, err := os.ReadFile(filepath.Join(dir, segName(10)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, tagged, err := readHeader(bytes.NewReader(hdr), schema); err != nil || !tagged {
		t.Fatalf("segment of the appended record: tagged %v, err %v", tagged, err)
	}
}
