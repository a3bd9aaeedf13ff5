package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/event"
)

// FuzzRecover drives segment recovery and the record decoder with
// arbitrary file contents. The contract under fuzzing: Open never
// panics — it either refuses the directory with an error or recovers a
// readable, appendable log; every record the recovered log serves
// decodes cleanly; and DecodeEvent on the raw input itself never
// panics.
func FuzzRecover(f *testing.F) {
	schema := testSchema(f)

	// Seed with a real two-record segment, the same records in a legacy
	// (seq-less) segment, and adversarial variants: torn tails, a
	// flipped payload bit, a torn header, and garbage.
	seedDir := f.TempDir()
	l, err := Open(Options{Dir: seedDir, Schema: schema, Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendBatch([]event.Event{mkEvent(1), mkEvent(2)}); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(legacySegment(schema, 0, []event.Event{mkEvent(1), mkEvent(2)}))
	f.Add(valid[:len(valid)-3]) // torn tail mid-record
	f.Add(valid[:5])            // torn header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("SESWAL1\nnot really a segment"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder alone must never panic on raw bytes.
		if e, err := DecodeEvent(data, schema); err == nil {
			if len(e.Attrs) != schema.NumFields() {
				t.Fatalf("DecodeEvent accepted an event with %d attrs, schema has %d", len(e.Attrs), schema.NumFields())
			}
		}

		// Recovery over the bytes as segment 0: refuse or repair.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, Schema: schema, Fsync: FsyncNever})
		if err != nil {
			return // rejected; acceptable for any input
		}
		defer l.Close()

		// Whatever survived must be fully readable...
		r := l.NewReader(l.FirstOffset())
		defer r.Close()
		n := int64(0)
		for {
			_, _, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("recovered log unreadable at offset %d: %v", l.FirstOffset()+n, err)
			}
			n++
		}
		if want := l.NextOffset() - l.FirstOffset(); n != want {
			t.Fatalf("recovered log served %d records, offsets promise %d", n, want)
		}

		// ...and the log must accept appends right where recovery ended.
		off, err := l.Append(mkEvent(99))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if off != l.NextOffset()-1 {
			t.Fatalf("append at offset %d, next %d", off, l.NextOffset())
		}
		if _, e, err := r.Next(); err != nil || e.Time != 990 {
			t.Fatalf("reading appended record: time=%d err=%v", e.Time, err)
		}
	})
}
