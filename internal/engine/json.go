package engine

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/event"
)

// JSON serialisation of matches for tooling (sesmatch -json). The
// shape is stable:
//
//	{
//	  "first": 1278147600, "last": 1278925200,
//	  "bindings": [
//	    {"var": "c", "events": [{"seq": 0, "time": 1278147600,
//	      "attrs": {"ID": 1, "L": "C", "V": 1672.5, "U": "mg"}}]},
//	    {"var": "p", "group": true, "events": [...]}
//	  ]
//	}
//
// Attribute maps need the schema, which events do not carry; use
// MatchJSON with the relation's schema.
//
// The encoder is hand-rolled and byte-identical to encoding/json over
// the equivalent structs-and-maps value (attribute keys sorted, HTML
// characters escaped): the serving layer encodes every match once on
// its hot path, and reflection-driven map encoding dominated its
// allocation profile.

// matchJSON mirrors Match for encoding; matchJSONReflect and the
// equivalence test in json_test.go pin MatchJSON to this layout.
type matchJSON struct {
	First    event.Time    `json:"first"`
	Last     event.Time    `json:"last"`
	Bindings []bindingJSON `json:"bindings"`
}

type bindingJSON struct {
	Var    string      `json:"var"`
	Group  bool        `json:"group,omitempty"`
	Events []eventJSON `json:"events"`
}

type eventJSON struct {
	Seq   int            `json:"seq"`
	Time  event.Time     `json:"time"`
	Attrs map[string]any `json:"attrs"`
}

// MatchJSON encodes a match using the schema for attribute names.
func MatchJSON(m Match, schema *event.Schema) ([]byte, error) {
	b, err := AppendMatchJSON(make([]byte, 0, 256), m, schema)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendMatchJSON appends the JSON encoding of m (the MatchJSON bytes)
// to b and returns the extended buffer. On an error, a float that JSON
// cannot represent, it returns b cut back to its length on entry, so a
// caller encoding many matches into one buffer loses only the failing
// one. Into a buffer with room it allocates nothing. It is the
// MatchEncoder with no cache: every bound event is rendered afresh.
func AppendMatchJSON(b []byte, m Match, schema *event.Schema) ([]byte, error) {
	enc := MatchEncoder{schema: schema}
	return enc.Append(b, m)
}

// MatchEncoder encodes matches like AppendMatchJSON, rendering each
// bound event once until Reset: the first match that binds an event
// appends the event's encoding to a side buffer, and every later match
// that binds it copies those bytes. The matches of a time window share
// most of their events (a group variable's matches differ by a few), so
// a batch of them costs about one rendering per distinct event plus
// the copies. Events are keyed by pointer, and the cache holds each
// one until Reset: a caller encodes one batch of matches (the serving
// layer, one stepped block's) and resets, so no event is pinned past
// its batch and the cache needs no size limit. An event that fails to
// encode is never cached.
type MatchEncoder struct {
	schema *event.Schema
	// spans maps an event to its encoding, events[lo:hi]; nil for the
	// uncached encoder behind AppendMatchJSON.
	spans  map[*event.Event]eventSpan
	events []byte
}

type eventSpan struct{ lo, hi int }

// NewMatchEncoder returns an encoder that reuses event encodings across
// the matches it encodes until Reset.
func NewMatchEncoder(schema *event.Schema) *MatchEncoder {
	return &MatchEncoder{schema: schema, spans: make(map[*event.Event]eventSpan)}
}

// Reset forgets every cached encoding and releases the events the
// cache referred to; the storage is kept for the next batch.
func (enc *MatchEncoder) Reset() {
	clear(enc.spans)
	enc.events = enc.events[:0]
}

// Append appends the JSON encoding of m to b, with AppendMatchJSON's
// bytes and error contract.
func (enc *MatchEncoder) Append(b []byte, m Match) ([]byte, error) {
	n0 := len(b)
	b = append(b, `{"first":`...)
	b = strconv.AppendInt(b, int64(m.First), 10)
	b = append(b, `,"last":`...)
	b = strconv.AppendInt(b, int64(m.Last), 10)
	b = append(b, `,"bindings":`...)
	if m.Bindings == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for bi, bind := range m.Bindings {
			if bi > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"var":`...)
			b = appendJSONString(b, bind.Var)
			if bind.Group {
				b = append(b, `,"group":true`...)
			}
			b = append(b, `,"events":`...)
			if bind.Events == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for ei := range bind.Events {
					if ei > 0 {
						b = append(b, ',')
					}
					var err error
					b, err = enc.appendEvent(b, bind.Events[ei])
					if err != nil {
						return b[:n0], err
					}
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendEvent appends e's encoding, from the cache when the encoder has
// one. On an error it returns the partly extended buffer for the caller
// to cut, and caches nothing.
func (enc *MatchEncoder) appendEvent(b []byte, e *event.Event) ([]byte, error) {
	if enc.spans == nil {
		return appendEventJSON(b, e, enc.schema)
	}
	if sp, ok := enc.spans[e]; ok {
		return append(b, enc.events[sp.lo:sp.hi]...), nil
	}
	lo := len(enc.events)
	var err error
	if enc.events, err = appendEventJSON(enc.events, e, enc.schema); err != nil {
		enc.events = enc.events[:lo]
		return b, err
	}
	enc.spans[e] = eventSpan{lo, len(enc.events)}
	return append(b, enc.events[lo:]...), nil
}

// appendEventJSON appends one bound event, its attributes in name order
// as encoding/json renders a map. On an error it returns the partly
// extended buffer for the caller to cut.
func appendEventJSON(b []byte, e *event.Event, schema *event.Schema) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, int64(e.Time), 10)
	b = append(b, `,"attrs":{`...)
	for k := 0; k < schema.NumFields(); k++ {
		if k > 0 {
			b = append(b, ',')
		}
		i := schema.SortedField(k)
		b = appendJSONString(b, schema.Field(i).Name)
		b = append(b, ':')
		var err error
		b, err = appendJSONValue(b, e.Attrs[i])
		if err != nil {
			return b, err
		}
	}
	return append(b, "}}"...), nil
}

// valueJSON converts a Value into its natural JSON representation.
func valueJSON(v event.Value) any {
	switch v.Kind() {
	case event.KindString:
		return v.Str()
	case event.KindInt:
		return v.Int64()
	case event.KindFloat:
		return v.Float64()
	default:
		return nil
	}
}

func appendJSONValue(b []byte, v event.Value) ([]byte, error) {
	switch v.Kind() {
	case event.KindString:
		return appendJSONString(b, v.Str()), nil
	case event.KindInt:
		return strconv.AppendInt(b, v.Int64(), 10), nil
	case event.KindFloat:
		return appendJSONFloat(b, v.Float64())
	default:
		return append(b, "null"...), nil
	}
}

// appendJSONFloat renders f exactly as encoding/json does: shortest
// round-trip representation, 'f' form except for very small or very
// large magnitudes, with the exponent's leading zero trimmed. A NaN or
// infinity is an error and leaves b as it was.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("engine: unsupported float value %v in match", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims the leading zero of a single-digit
		// negative exponent: "e-09" renders as "e-9".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// NDJSON batch ingest decoding.
//
// BlockDecoder turns a batch of ingest lines ({"time": T, "attrs":
// {name: value}}) into an arena-backed event block. It replaces the
// per-event encoding/json path (json.Decoder + map[string]RawMessage +
// one attribute slice per event) with two passes that share one byte
// arena:
//
//  1. Scan (Add): each line is copied once into the arena and scanned
//     structurally; every attribute's raw value is recorded as an
//     offset span — zero-copy field slicing, no maps, no RawMessage
//     boxing. Time is parsed on the spot.
//  2. Parse (Finish): the recorded spans are decoded column at a time
//     — one type dispatch per schema field rather than one per cell —
//     into a single flat value array; each event's attribute slice is
//     a view into it.
//
// The decoder is semantics-identical to the per-line reference decoder
// built on encoding/json (the server package's tests keep it as
// parseEvent), including its quirks:
// case-folded top-level keys, duplicate-key last-wins, "attrs": null
// resetting previously seen attributes, null attribute values decoding
// to the declared type's zero value, trailing garbage after the
// top-level value being accepted, "01" rejected, 1.0 rejected for
// integer fields, \u escapes with surrogate pairs, invalid UTF-8
// replaced by U+FFFD, and a 10000 nesting depth limit. A differential
// fuzz target (FuzzBlockDecoder) pins the equivalence: accept implies
// identical events, reject implies reject.
//
// Error precedence matches line-by-line decoding even though values
// are parsed in a second pass: Add latches the first scan-phase error
// and stops accepting lines, and Finish reports the earliest line with
// any error (scan errors can only occur on later lines than committed
// value errors), breaking ties within a line in schema field order —
// exactly the order the reference decoder checks fields.

// maxJSONDepth mirrors encoding/json's nesting limit. Container depth
// is counted from the top-level object, so an attribute value's
// outermost container sits at depth 3.
const maxJSONDepth = 10000

// cellSpan locates one attribute's raw JSON value inside the decoder's
// byte arena. end == 0 means "attribute not seen on this row" (a real
// value can never end at offset 0: it is preceded at least by the
// opening '{' of its line).
type cellSpan struct {
	off, end int
}

// BlockDecoder decodes NDJSON ingest batches. It is not safe for
// concurrent use; Reset makes an instance reusable across batches.
type BlockDecoder struct {
	schema *event.Schema
	names  []string
	nf     int

	raw   []byte     // all scanned lines, back to back
	cells []cellSpan // nf spans per committed row
	times []event.Time
	seqs  []int64 // per-row explicit "seq", -1 when the line carried none
	rows  []int   // source line number per committed row

	scratch []cellSpan // current line's cells, copied into cells on commit
	strBuf  []byte     // escape-decoding scratch

	stopLine int   // line number of the latched scan-phase error
	stopErr  error // latched scan-phase error; nil while accepting

	curTime event.Time // current line's "time", valid when timeSet
	timeSet bool
	curSeq  int64 // current line's "seq", valid when seqSet
	seqSet  bool
}

// NewBlockDecoder creates a decoder for ingest lines over the schema.
func NewBlockDecoder(schema *event.Schema) *BlockDecoder {
	nf := schema.NumFields()
	d := &BlockDecoder{schema: schema, nf: nf}
	d.names = make([]string, nf)
	for i := range d.names {
		d.names[i] = schema.Field(i).Name
	}
	d.scratch = make([]cellSpan, nf)
	return d
}

// Reset clears the decoder for a new batch, retaining modest buffer
// capacity.
func (d *BlockDecoder) Reset() {
	const keepArena = 1 << 22
	if cap(d.raw) > keepArena {
		d.raw = nil
	}
	d.raw = d.raw[:0]
	d.cells = d.cells[:0]
	d.times = d.times[:0]
	d.seqs = d.seqs[:0]
	d.rows = d.rows[:0]
	d.stopLine, d.stopErr = 0, nil
}

// Add scans one trimmed, non-empty ingest line (the decoder keeps its
// own copy). It returns false once an error is latched; the caller may
// stop feeding lines and should call Finish for the final verdict.
func (d *BlockDecoder) Add(lineNo int, line []byte) bool {
	if d.stopErr != nil {
		return false
	}
	base := len(d.raw)
	d.raw = append(d.raw, line...)
	d.timeSet = false
	d.seqSet = false
	for i := range d.scratch {
		d.scratch[i] = cellSpan{}
	}
	if err := d.scanLine(base, len(d.raw)); err != nil {
		d.stopLine, d.stopErr = lineNo, err
		return false
	}
	if !d.timeSet {
		d.stopLine, d.stopErr = lineNo, fmt.Errorf("missing \"time\"")
		return false
	}
	for f := 0; f < d.nf; f++ {
		if d.scratch[f].end == 0 {
			d.stopLine, d.stopErr = lineNo,
				fmt.Errorf("missing attribute %q (schema: %s)", d.names[f], d.schema)
			return false
		}
	}
	d.cells = append(d.cells, d.scratch...)
	d.times = append(d.times, d.curTime)
	sq := int64(-1)
	if d.seqSet {
		sq = d.curSeq
	}
	d.seqs = append(d.seqs, sq)
	d.rows = append(d.rows, lineNo)
	return true
}

// Finish parses the recorded value columns and returns the batch's
// events, or the error of the earliest bad line formatted as
// "line N: ...". The returned events do not alias decoder state.
func (d *BlockDecoder) Finish() ([]event.Event, error) {
	nrows := len(d.times)
	bestRow := nrows
	var bestErr error
	var vals []event.Value
	if nrows > 0 {
		vals = make([]event.Value, nrows*d.nf)
		for f := 0; f < d.nf; f++ {
			typ := d.schema.Field(f).Type
			for r := 0; r < bestRow; r++ {
				v, err := d.parseCell(typ, f, d.cells[r*d.nf+f])
				if err != nil {
					bestRow, bestErr = r, err
					break
				}
				vals[r*d.nf+f] = v
			}
		}
	}
	if bestErr != nil {
		return nil, fmt.Errorf("line %d: %v", d.rows[bestRow], bestErr)
	}
	if d.stopErr != nil {
		return nil, fmt.Errorf("line %d: %v", d.stopLine, d.stopErr)
	}
	evs := make([]event.Event, nrows)
	for r := range evs {
		evs[r] = event.Event{Seq: int(d.seqs[r]), Time: d.times[r], Attrs: vals[r*d.nf : (r+1)*d.nf : (r+1)*d.nf]}
	}
	return evs, nil
}

// parseCell decodes one raw value span as the field's declared type,
// reproducing json.Unmarshal's behaviour for that Go type (null is a
// no-op and yields the zero value; wrong-kind tokens error).
func (d *BlockDecoder) parseCell(typ event.Type, f int, cell cellSpan) (event.Value, error) {
	b := d.raw[cell.off:cell.end]
	c := b[0]
	switch typ {
	case event.TypeString:
		switch {
		case c == '"':
			return event.String(d.unquote(b[1 : len(b)-1])), nil
		case c == 'n':
			return event.String(""), nil
		default:
			return event.Value{}, fmt.Errorf("attribute %q: want a string: json: cannot unmarshal %s into Go value of type string",
				d.names[f], tokenKind(c))
		}
	case event.TypeInt:
		switch {
		case c == '-' || (c >= '0' && c <= '9'):
			n, ok := parseJSONInt64(b)
			if !ok {
				return event.Value{}, fmt.Errorf("attribute %q: want an integer: json: cannot unmarshal number %s into Go value of type int64",
					d.names[f], b)
			}
			return event.Int(n), nil
		case c == 'n':
			return event.Int(0), nil
		default:
			return event.Value{}, fmt.Errorf("attribute %q: want an integer: json: cannot unmarshal %s into Go value of type int64",
				d.names[f], tokenKind(c))
		}
	default:
		switch {
		case c == '-' || (c >= '0' && c <= '9'):
			fv, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				// Syntax was validated at scan time; only range errors reach here.
				return event.Value{}, fmt.Errorf("attribute %q: want a number: json: cannot unmarshal number %s into Go value of type float64",
					d.names[f], b)
			}
			return event.Float(fv), nil
		case c == 'n':
			return event.Float(0), nil
		default:
			return event.Value{}, fmt.Errorf("attribute %q: want a number: json: cannot unmarshal %s into Go value of type float64",
				d.names[f], tokenKind(c))
		}
	}
}

// tokenKind names the JSON kind a raw value starts with, in the words
// encoding/json uses in its errors.
func tokenKind(c byte) string {
	switch {
	case c == '"':
		return "string"
	case c == 't' || c == 'f':
		return "bool"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	default:
		return "number"
	}
}

// parseJSONInt64 parses a scan-validated JSON number literal with
// json.Unmarshal-into-int64 semantics: any fraction or exponent (even
// an integral one like 1.0 or 1e2) and any overflow reject.
func parseJSONInt64(b []byte) (int64, bool) {
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
	}
	const cutoff = uint64(1) << 63 / 10
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > cutoff {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	switch {
	case neg && n == 1<<63:
		return math.MinInt64, true
	case neg && n < 1<<63:
		return -int64(n), true
	case !neg && n <= math.MaxInt64:
		return int64(n), true
	}
	return 0, false
}

// unquote decodes a scan-validated string body (without the quotes):
// escape sequences including surrogate pairs, invalid UTF-8 replaced
// by U+FFFD — the encoding/json rules. The returned string never
// aliases decoder state.
func (d *BlockDecoder) unquote(b []byte) string {
	simple := true
	for _, c := range b {
		if c == '\\' || c >= utf8.RuneSelf {
			simple = false
			break
		}
	}
	if simple {
		return string(b)
	}
	buf := d.strBuf[:0]
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '\\':
			i++
			switch b[i] {
			case '"', '\\', '/':
				buf = append(buf, b[i])
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			default: // 'u', hex validated at scan time
				r := getu4(b[i+1:])
				i += 5
				if utf16.IsSurrogate(r) {
					// A decodable high+low pair combines and consumes both
					// escapes; anything else becomes U+FFFD and leaves the
					// cursor after the first escape, as encoding/json does.
					if i+6 <= len(b) && b[i] == '\\' && b[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, getu4(b[i+2:])); dec != utf8.RuneError {
							r = dec
							i += 6
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		}
	}
	d.strBuf = buf
	return string(buf)
}

// getu4 decodes four scan-validated hex digits.
func getu4(b []byte) rune {
	var r rune
	for i := 0; i < 4; i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// ---- structural line scan ----

var errUnexpectedEnd = fmt.Errorf("unexpected end of JSON input")

// quoteChar renders a byte the way encoding/json errors do.
func quoteChar(c byte) string { return strconv.QuoteRune(rune(c)) }

// scanLine structurally validates d.raw[start:end] as one ingest line,
// recording attribute value spans into d.scratch and the timestamp
// into d.curTime/d.timeSet.
func (d *BlockDecoder) scanLine(start, end int) error {
	s := &lineScan{d: d, b: d.raw, i: start, end: end}
	s.ws()
	if s.i >= s.end {
		return errUnexpectedEnd
	}
	switch c := s.b[s.i]; c {
	case '{':
		// Trailing bytes after the object are ignored: the reference
		// path decodes one value from the stream and never looks back.
		return s.topObject()
	case 'n':
		// A null top-level value decodes to the zero struct (no time,
		// no attrs); the missing-"time" check rejects it downstream.
		return s.literal("null")
	default:
		return fmt.Errorf("json: cannot unmarshal %s into Go value of type event", tokenKind(c))
	}
}

type lineScan struct {
	d   *BlockDecoder
	b   []byte
	i   int
	end int
}

func (s *lineScan) ws() {
	for s.i < s.end {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// literal consumes the given literal token.
func (s *lineScan) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if s.i >= s.end {
			return errUnexpectedEnd
		}
		if s.b[s.i] != lit[j] {
			return fmt.Errorf("invalid character %s in literal %s (expecting %s)",
				quoteChar(s.b[s.i]), lit, quoteChar(lit[j]))
		}
		s.i++
	}
	return nil
}

// topObject scans the top-level {"time": ..., "attrs": ...} object.
// Keys fold like encoding/json struct fields; unknown keys reject
// (DisallowUnknownFields), duplicates re-assign in input order.
func (s *lineScan) topObject() error {
	s.i++
	s.ws()
	if s.i < s.end && s.b[s.i] == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.objectKey()
		if err != nil {
			return err
		}
		switch {
		case s.foldKey(key, "time"):
			err = s.timeValue()
		case s.foldKey(key, "seq"):
			err = s.seqValue()
		case s.foldKey(key, "attrs"):
			err = s.attrsValue()
		default:
			return fmt.Errorf("json: unknown field %q", s.d.decodeKey(key))
		}
		if err != nil {
			return err
		}
		more, err := s.objectNext()
		if err != nil || !more {
			return err
		}
	}
}

// objectKey consumes `"key" :` and returns the raw key bytes (without
// quotes, escapes undecoded).
func (s *lineScan) objectKey() ([]byte, error) {
	if s.i >= s.end {
		return nil, errUnexpectedEnd
	}
	if s.b[s.i] != '"' {
		return nil, fmt.Errorf("invalid character %s looking for beginning of object key string", quoteChar(s.b[s.i]))
	}
	keyOff := s.i
	if err := s.scanString(); err != nil {
		return nil, err
	}
	key := s.b[keyOff+1 : s.i-1]
	s.ws()
	if s.i >= s.end {
		return nil, errUnexpectedEnd
	}
	if s.b[s.i] != ':' {
		return nil, fmt.Errorf("invalid character %s after object key", quoteChar(s.b[s.i]))
	}
	s.i++
	s.ws()
	return key, nil
}

// objectNext consumes the ',' or '}' after a key:value pair, reporting
// whether another pair follows.
func (s *lineScan) objectNext() (bool, error) {
	s.ws()
	if s.i >= s.end {
		return false, errUnexpectedEnd
	}
	switch s.b[s.i] {
	case ',':
		s.i++
		s.ws()
		return true, nil
	case '}':
		s.i++
		return false, nil
	}
	return false, fmt.Errorf("invalid character %s after object key:value pair", quoteChar(s.b[s.i]))
}

// timeValue parses the "time" value in place: an integer JSON number
// sets the row's timestamp, null resets it to unset (json assigns nil
// to the *int64 field), anything else rejects.
func (s *lineScan) timeValue() error {
	if s.i >= s.end {
		return errUnexpectedEnd
	}
	switch c := s.b[s.i]; {
	case c == 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		s.d.timeSet = false
		return nil
	case c == '-' || (c >= '0' && c <= '9'):
		off := s.i
		if err := s.scanNumber(); err != nil {
			return err
		}
		lit := s.b[off:s.i]
		n, ok := parseJSONInt64(lit)
		if !ok {
			return fmt.Errorf("json: cannot unmarshal number %s into Go struct field .time of type int64", lit)
		}
		s.d.curTime = event.Time(n)
		s.d.timeSet = true
		return nil
	default:
		return fmt.Errorf("json: cannot unmarshal %s into Go struct field .time of type int64", tokenKind(c))
	}
}

// seqValue parses the optional "seq" value — a router-assigned global
// stream position under cluster ingest — with the same semantics as
// timeValue: an integer JSON number sets it, null resets it to unset.
func (s *lineScan) seqValue() error {
	if s.i >= s.end {
		return errUnexpectedEnd
	}
	switch c := s.b[s.i]; {
	case c == 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		s.d.seqSet = false
		return nil
	case c == '-' || (c >= '0' && c <= '9'):
		off := s.i
		if err := s.scanNumber(); err != nil {
			return err
		}
		lit := s.b[off:s.i]
		n, ok := parseJSONInt64(lit)
		if !ok {
			return fmt.Errorf("json: cannot unmarshal number %s into Go struct field .seq of type int64", lit)
		}
		s.d.curSeq = n
		s.d.seqSet = true
		return nil
	default:
		return fmt.Errorf("json: cannot unmarshal %s into Go struct field .seq of type int64", tokenKind(c))
	}
}

// attrsValue scans the "attrs" value: an object records one span per
// known attribute (exact-match keys, last occurrence wins), null
// resets every recorded attribute (json assigns nil to the map field),
// anything else rejects.
func (s *lineScan) attrsValue() error {
	if s.i >= s.end {
		return errUnexpectedEnd
	}
	switch c := s.b[s.i]; {
	case c == 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		for f := range s.d.scratch {
			s.d.scratch[f] = cellSpan{}
		}
		return nil
	case c == '{':
		s.i++
		s.ws()
		if s.i < s.end && s.b[s.i] == '}' {
			s.i++
			return nil
		}
		for {
			key, err := s.objectKey()
			if err != nil {
				return err
			}
			fi := s.d.fieldIndex(key)
			if fi < 0 {
				return fmt.Errorf("unknown attribute %q (schema: %s)", s.d.decodeKey(key), s.d.schema)
			}
			off := s.i
			if err := s.skipValue(0); err != nil {
				return err
			}
			s.d.scratch[fi] = cellSpan{off: off, end: s.i}
			more, err := s.objectNext()
			if err != nil || !more {
				return err
			}
		}
	default:
		return fmt.Errorf("json: cannot unmarshal %s into Go struct field .attrs of type map[string]json.RawMessage", tokenKind(c))
	}
}

// skipValue validates any JSON value without interpreting it. depth
// counts containers below the attrs object (which sits at nesting
// depth 2), enforcing the encoding/json limit at the same point.
func (s *lineScan) skipValue(depth int) error {
	if s.i >= s.end {
		return errUnexpectedEnd
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.scanString()
	case c == '-' || (c >= '0' && c <= '9'):
		return s.scanNumber()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '{':
		if depth+3 > maxJSONDepth {
			return fmt.Errorf("invalid character %s exceeded max depth", quoteChar(c))
		}
		s.i++
		s.ws()
		if s.i < s.end && s.b[s.i] == '}' {
			s.i++
			return nil
		}
		for {
			if _, err := s.objectKey(); err != nil {
				return err
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			more, err := s.objectNext()
			if err != nil || !more {
				return err
			}
		}
	case c == '[':
		if depth+3 > maxJSONDepth {
			return fmt.Errorf("invalid character %s exceeded max depth", quoteChar(c))
		}
		s.i++
		s.ws()
		if s.i < s.end && s.b[s.i] == ']' {
			s.i++
			return nil
		}
		for {
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			s.ws()
			if s.i >= s.end {
				return errUnexpectedEnd
			}
			switch s.b[s.i] {
			case ',':
				s.i++
				s.ws()
			case ']':
				s.i++
				return nil
			default:
				return fmt.Errorf("invalid character %s after array element", quoteChar(s.b[s.i]))
			}
		}
	default:
		return fmt.Errorf("invalid character %s looking for beginning of value", quoteChar(c))
	}
}

// scanString validates a string token (cursor on the opening quote)
// and leaves the cursor after the closing quote. Escape sequences are
// checked here so the decode pass can run unchecked; raw non-ASCII and
// invalid UTF-8 bytes pass through, as in encoding/json.
func (s *lineScan) scanString() error {
	s.i++
	for s.i < s.end {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return nil
		case c == '\\':
			s.i++
			if s.i >= s.end {
				return errUnexpectedEnd
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				if s.i+4 > s.end {
					return errUnexpectedEnd
				}
				for k := 0; k < 4; k++ {
					if !isHexDigit(s.b[s.i+k]) {
						return fmt.Errorf("invalid character %s in \\u hexadecimal character escape", quoteChar(s.b[s.i+k]))
					}
				}
				s.i += 4
			default:
				return fmt.Errorf("invalid character %s in string escape code", quoteChar(s.b[s.i]))
			}
		case c < 0x20:
			return fmt.Errorf("invalid character %s in string literal", quoteChar(c))
		default:
			s.i++
		}
	}
	return errUnexpectedEnd
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// scanNumber validates a number token (cursor on '-' or a digit) and
// leaves the cursor after it. "01", "1.", ".5" and "1e" reject, as in
// the JSON grammar.
func (s *lineScan) scanNumber() error {
	if s.b[s.i] == '-' {
		s.i++
		if s.i >= s.end {
			return errUnexpectedEnd
		}
		if s.b[s.i] < '0' || s.b[s.i] > '9' {
			return fmt.Errorf("invalid character %s in numeric literal", quoteChar(s.b[s.i]))
		}
	}
	if s.b[s.i] == '0' {
		s.i++
	} else {
		for s.i < s.end && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
		}
	}
	if s.i < s.end && s.b[s.i] == '.' {
		s.i++
		n := 0
		for s.i < s.end && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
			n++
		}
		if n == 0 {
			if s.i >= s.end {
				return errUnexpectedEnd
			}
			return fmt.Errorf("invalid character %s after decimal point in numeric literal", quoteChar(s.b[s.i]))
		}
	}
	if s.i < s.end && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < s.end && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		n := 0
		for s.i < s.end && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
			n++
		}
		if n == 0 {
			if s.i >= s.end {
				return errUnexpectedEnd
			}
			return fmt.Errorf("invalid character %s in exponent of numeric literal", quoteChar(s.b[s.i]))
		}
	}
	return nil
}

// foldKey reports whether a raw top-level key equals name under
// encoding/json's field folding: ASCII case-insensitive plus the two
// Unicode characters whose simple fold lands in ASCII (ſ → s, K → k).
func (s *lineScan) foldKey(raw []byte, name string) bool {
	for _, c := range raw {
		if c == '\\' {
			return foldEq([]byte(s.d.decodeKey(raw)), name)
		}
	}
	return foldEq(raw, name)
}

func foldEq(b []byte, name string) bool {
	j := 0
	for i := 0; i < len(b); j++ {
		if j >= len(name) {
			return false
		}
		c := b[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		switch r {
		case 'ſ': // LATIN SMALL LETTER LONG S folds to 's'
			c = 's'
		case 'K': // KELVIN SIGN folds to 'k'
			c = 'k'
		default:
			return false
		}
		if c != name[j] {
			return false
		}
		i += size
	}
	return j == len(name)
}

// fieldIndex resolves a raw attrs key to its schema field, decoding
// escapes only when present (map keys match exactly, no folding).
func (d *BlockDecoder) fieldIndex(key []byte) int {
	for _, c := range key {
		if c == '\\' {
			dec := d.decodeKey(key)
			for i, n := range d.names {
				if n == dec {
					return i
				}
			}
			return -1
		}
	}
	for i, n := range d.names {
		if n == string(key) {
			return i
		}
	}
	return -1
}

// decodeKey decodes a raw key's escapes for matching and error
// messages.
func (d *BlockDecoder) decodeKey(key []byte) string { return d.unquote(key) }

const jsonHex = "0123456789abcdef"

// appendJSONString escapes s exactly as encoding/json with HTML
// escaping enabled (the json.Marshal default).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			// Invalid UTF-8 renders as the escaped replacement character.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
		case r == '\u2028' || r == '\u2029':
			// Line and paragraph separators break JavaScript string
			// literals; json escapes them unconditionally.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
		default:
			i += size
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
