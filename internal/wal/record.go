package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/event"
)

// Segment file layout:
//
//	header  := magic | schemaLen u16 | schema "#seq" | base i64 | crc u32
//	record  := length u32 | crc u32 | payload
//	payload := seq varint | time varint | attribute values
//
// All fixed-width integers are little-endian. The header crc is the
// CRC32C of everything before it; a record's crc is the CRC32C of its
// payload. Record offsets are implicit: the i-th record of a segment
// has offset base+i, which is what keeps the log dense and lets a
// reader locate any offset from the segment file names alone. A
// record's seq is its stream position, stamped by the server or by a
// cluster router: it increases strictly along the log and may skip
// values, and it is what readers position by and match streams render.
//
// Segments written before records carried their seq have the bare
// schema in their header and payloads without the seq varint; such a
// segment is still read, each record's seq being its offset, but never
// appended to.
const (
	segMagic = "SESWAL1\n"

	// maxRecordBytes bounds one record's payload. It exists so a
	// corrupted length field cannot drive a multi-gigabyte allocation;
	// real event payloads are tens of bytes.
	maxRecordBytes = 16 << 20

	// frameSize is the fixed per-record framing overhead.
	frameSize = 8
)

// castagnoli is the CRC32C polynomial table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errSchemaMismatch distinguishes a configuration error (log opened
// with the wrong schema) from tail corruption during recovery: the
// former must abort Open, never trigger truncation.
var errSchemaMismatch = fmt.Errorf("wal: schema mismatch")

// EncodeEvent appends the WAL record payload of e — its seq, its
// occurrence time and the schema's attribute values, without framing —
// to dst and returns the extended slice. The encoding is
// schema-relative: DecodeEvent needs the same schema to reverse it. The
// replication shipper puts the same payload on the wire, and the
// resilience layer embeds it in supervisor checkpoints.
func EncodeEvent(dst []byte, schema *event.Schema, e *event.Event) []byte {
	dst = binary.AppendVarint(dst, int64(e.Seq))
	dst = binary.AppendVarint(dst, int64(e.Time))
	for i := 0; i < schema.NumFields(); i++ {
		v := e.Attrs[i]
		switch schema.Field(i).Type {
		case event.TypeString:
			s := v.Str()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case event.TypeInt:
			dst = binary.AppendVarint(dst, v.Int64())
		default:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float64()))
		}
	}
	return dst
}

// DecodeEvent reverses EncodeEvent over the given schema. The payload
// must be consumed exactly; trailing bytes are corruption.
func DecodeEvent(data []byte, schema *event.Schema) (event.Event, error) {
	seq, body, err := splitRecord(data, true, 0)
	if err != nil {
		return event.Event{}, err
	}
	attrs := make([]event.Value, schema.NumFields())
	t, err := decodeEventBody(body, schema, attrs)
	if err != nil {
		return event.Event{}, err
	}
	return event.Event{Seq: int(seq), Time: t, Attrs: attrs}, nil
}

// splitRecord returns a record payload's seq and the event body after
// it. A record of a legacy (untagged) segment carries no seq: its seq
// is its offset off.
func splitRecord(data []byte, tagged bool, off int64) (int64, []byte, error) {
	if !tagged {
		return off, data, nil
	}
	seq, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated event sequence")
	}
	if seq < 0 {
		return 0, nil, fmt.Errorf("wal: negative event sequence %d", seq)
	}
	return seq, data[n:], nil
}

// decodeEventBody walks one event body (time and attributes) over the
// schema, storing decoded attribute values into attrs when it is
// non-nil (attrs must then have schema.NumFields() entries). A nil
// attrs validates the body's shape only — no per-attribute allocation
// happens, so recovery scans allocate no event per record.
func decodeEventBody(data []byte, schema *event.Schema, attrs []event.Value) (event.Time, error) {
	t, n := binary.Varint(data)
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated event time")
	}
	data = data[n:]
	for i := 0; i < schema.NumFields(); i++ {
		switch schema.Field(i).Type {
		case event.TypeString:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return 0, fmt.Errorf("wal: truncated string attribute %q", schema.Field(i).Name)
			}
			if attrs != nil {
				attrs[i] = event.String(string(data[n : n+int(l)]))
			}
			data = data[n+int(l):]
		case event.TypeInt:
			v, n := binary.Varint(data)
			if n <= 0 {
				return 0, fmt.Errorf("wal: truncated int attribute %q", schema.Field(i).Name)
			}
			if attrs != nil {
				attrs[i] = event.Int(v)
			}
			data = data[n:]
		default:
			if len(data) < 8 {
				return 0, fmt.Errorf("wal: truncated float attribute %q", schema.Field(i).Name)
			}
			if attrs != nil {
				attrs[i] = event.Float(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
			data = data[8:]
		}
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("wal: %d trailing bytes after event payload", len(data))
	}
	return event.Time(t), nil
}

// seqSchemaSuffix tags the schema string in the header of a segment
// whose records carry their seq; its absence marks a legacy segment.
const seqSchemaSuffix = "#seq"

// EncodeFrame appends one framed record (length, CRC32C, payload) to
// dst and returns the extended slice. The replication shipper uses it
// to put records on the wire in exactly the on-disk format, so the
// follower re-verifies the same CRC the leader computed at append.
func EncodeFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// DecodeFrame reads one framed record payload from r into buf
// (reallocating as needed) and returns the payload, CRC-verified.
// io.EOF means a clean end of stream; io.ErrUnexpectedEOF a torn
// frame. It is the wire-side counterpart of EncodeFrame.
func DecodeFrame(r io.Reader, buf []byte) ([]byte, error) { return readFrame(r, buf) }

// appendFrame appends one framed record (length, CRC32C, payload) to
// dst and returns the extended slice.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// encodeHeader renders a segment header for the given schema and base
// offset.
func encodeHeader(schema *event.Schema, base int64) []byte {
	s := schema.String() + seqSchemaSuffix
	buf := make([]byte, 0, len(segMagic)+2+len(s)+8+4)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	buf = append(buf, s...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// readHeader reads and validates a segment header from r, returning
// the declared base offset, the header's byte length and whether the
// segment's records carry their seq (false for a legacy segment).
func readHeader(r io.Reader, schema *event.Schema) (base, size int64, tagged bool, err error) {
	fixed := make([]byte, len(segMagic)+2)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return 0, 0, false, fmt.Errorf("wal: segment header: %w", err)
	}
	if string(fixed[:len(segMagic)]) != segMagic {
		return 0, 0, false, fmt.Errorf("wal: bad segment magic %q", fixed[:len(segMagic)])
	}
	schemaLen := int(binary.LittleEndian.Uint16(fixed[len(segMagic):]))
	rest := make([]byte, schemaLen+8+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, 0, false, fmt.Errorf("wal: segment header: %w", err)
	}
	sum := crc32.Checksum(fixed, castagnoli)
	sum = crc32.Update(sum, castagnoli, rest[:schemaLen+8])
	if sum != binary.LittleEndian.Uint32(rest[schemaLen+8:]) {
		return 0, 0, false, fmt.Errorf("wal: segment header CRC mismatch")
	}
	got, want := rest[:schemaLen], schema.String()
	tagged = len(got) == len(want)+len(seqSchemaSuffix) && string(got[len(want):]) == seqSchemaSuffix
	if tagged {
		got = got[:len(want)]
	}
	if string(got) != want {
		return 0, 0, false, fmt.Errorf("%w: segment has (%s), log opened with (%s)", errSchemaMismatch, rest[:schemaLen], want)
	}
	base = int64(binary.LittleEndian.Uint64(rest[schemaLen : schemaLen+8]))
	if base < 0 {
		return 0, 0, false, fmt.Errorf("wal: negative segment base offset %d", base)
	}
	return base, int64(len(fixed) + len(rest)), tagged, nil
}

// readFrame reads one framed record payload from r into buf
// (reallocating as needed) and returns the payload. io.EOF means a
// clean end; io.ErrUnexpectedEOF or a CRC/length error means the frame
// is torn or corrupt.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The 8-byte head is staged in the caller's reusable buffer rather
	// than a local array: a local passed to an io.Reader escapes, which
	// would cost one heap allocation per record replayed.
	if cap(buf) < frameSize {
		buf = make([]byte, frameSize, 256)
	}
	head := buf[:frameSize]
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	length := binary.LittleEndian.Uint32(head[:4])
	sum := binary.LittleEndian.Uint32(head[4:])
	if length > maxRecordBytes {
		return nil, fmt.Errorf("wal: record length %d exceeds limit", length)
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, fmt.Errorf("wal: record CRC mismatch")
	}
	return buf, nil
}
