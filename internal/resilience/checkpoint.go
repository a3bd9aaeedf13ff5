package resilience

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/wal"
)

// ckptMagic introduces the versioned on-disk checkpoint envelope. A
// file without it is a legacy checkpoint: a bare runner snapshot with
// no source-offset watermark and no reorderer state, as written before
// the WAL existed. Those still restore (the watermark just reports
// unknown).
const ckptMagic = "SESCKPT2"

// ckptState is the decoded on-disk checkpoint: everything a restarted
// process needs to resume the supervised pipeline exactly where the
// persisted one stopped, given a replayable source.
type ckptState struct {
	// srcLast is the source offset (event.Seq as delivered by the
	// feeder, e.g. a WAL offset) of the last event received from the
	// input channel, or -1 if none / unknown. Every event at or below
	// it is accounted for: consumed into the runner snapshot, buffered
	// in the reorderer state, or deterministically dead-lettered.
	srcLast int64
	// reorder restores the in-flight buffered events.
	reorder engine.ReordererState
	// runner is the embedded engine snapshot (engine.SnapshotBytes).
	runner []byte
}

// encodeCheckpoint renders the v2 envelope. Buffered events are
// encoded with the WAL event codec over the automaton's schema, laid
// out as seq, body length, body: the envelope predates WAL payloads
// that begin with the seq, and keeps its layout so that older
// checkpoints restore.
func encodeCheckpoint(schema *event.Schema, st ckptState) []byte {
	buf := make([]byte, 0, len(ckptMagic)+len(st.runner)+len(st.reorder.Buffered)*32+64)
	buf = append(buf, ckptMagic...)
	buf = binary.AppendVarint(buf, st.srcLast)
	buf = binary.AppendVarint(buf, 0) // a retired counter's slot, kept so older envelopes decode
	if st.reorder.Seen {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(st.reorder.MaxSeen))
	buf = binary.AppendUvarint(buf, uint64(len(st.reorder.Buffered)))
	var scratch []byte
	for i := range st.reorder.Buffered {
		scratch = wal.EncodeEvent(scratch[:0], schema, &st.reorder.Buffered[i])
		_, n := binary.Varint(scratch)
		buf = append(buf, scratch[:n]...)
		buf = binary.AppendUvarint(buf, uint64(len(scratch)-n))
		buf = append(buf, scratch[n:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.runner)))
	return append(buf, st.runner...)
}

// decodeCheckpoint parses a v2 envelope. ok is false when data lacks
// the magic (a legacy bare-snapshot checkpoint); err is non-nil only
// for a corrupt v2 payload.
func decodeCheckpoint(schema *event.Schema, data []byte) (st ckptState, ok bool, err error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return ckptState{}, false, nil
	}
	data = data[len(ckptMagic):]
	bad := func(what string) (ckptState, bool, error) {
		return ckptState{}, false, fmt.Errorf("resilience: corrupt checkpoint: %s", what)
	}
	var n int
	if st.srcLast, n = binary.Varint(data); n <= 0 {
		return bad("source offset")
	}
	data = data[n:]
	if _, n = binary.Varint(data); n <= 0 {
		return bad("arrival counter")
	}
	data = data[n:]
	if len(data) < 1 {
		return bad("seen flag")
	}
	st.reorder.Seen = data[0] == 1
	data = data[1:]
	maxSeen, n := binary.Varint(data)
	if n <= 0 {
		return bad("watermark")
	}
	st.reorder.MaxSeen = event.Time(maxSeen)
	data = data[n:]
	nbuf, n := binary.Uvarint(data)
	if n <= 0 || nbuf > uint64(len(data)) {
		return bad("buffer length")
	}
	data = data[n:]
	st.reorder.Buffered = make([]event.Event, 0, nbuf)
	var rec []byte
	for i := uint64(0); i < nbuf; i++ {
		_, sn := binary.Varint(data)
		if sn <= 0 {
			return bad("buffered event seq")
		}
		plen, n := binary.Uvarint(data[sn:])
		if n <= 0 || plen > uint64(len(data)-sn-n) {
			return bad("buffered event length")
		}
		rec = append(append(rec[:0], data[:sn]...), data[sn+n:sn+n+int(plen)]...)
		e, err := wal.DecodeEvent(rec, schema)
		if err != nil {
			return ckptState{}, false, fmt.Errorf("resilience: corrupt checkpoint: %w", err)
		}
		st.reorder.Buffered = append(st.reorder.Buffered, e)
		data = data[sn+n+int(plen):]
	}
	rlen, n := binary.Uvarint(data)
	if n <= 0 || rlen != uint64(len(data)-n) {
		return bad("runner snapshot length")
	}
	st.runner = data[n : n+int(rlen)]
	return st, true, nil
}

// CheckpointOffset reports the source-offset watermark recorded in the
// checkpoint file at path: every source event with offset at or below
// the returned value is covered by the checkpoint, so a replaying
// feeder should resume at watermark+1. For a checkpoint written through
// ses.Query.Supervise that is the arrival position of the last event
// received. ok is false when the file does not exist, is a legacy
// (pre-WAL) checkpoint, or records no watermark — the feeder must then
// replay from the query's registration offset. Only the header is read.
func CheckpointOffset(path string) (watermark int64, ok bool, err error) {
	w, err := lastPosition(path, false)
	return w, w >= 0, err
}

// ResumeSeq returns the Seq the feeder of a run with cfg stamps on its
// first event: with Resume, one past the watermark of CheckpointPath's
// envelope or a bare runner snapshot's EventsProcessed; otherwise 0.
func ResumeSeq(cfg Config) (int, error) {
	if !cfg.Resume || cfg.CheckpointPath == "" {
		return 0, nil
	}
	w, err := lastPosition(cfg.CheckpointPath, true)
	return int(w) + 1, err
}

// lastPosition reads the position of the last event the checkpoint at
// path covers from an envelope's header or, with bare, from a bare
// snapshot; it is -1 when there is none.
func lastPosition(path string, bare bool) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	} else if err != nil {
		return -1, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if magic, _ := r.Peek(len(ckptMagic)); string(magic) != ckptMagic {
		if !bare {
			return -1, nil
		}
		// The metrics of engine.Runner.WriteSnapshot's document.
		var snap struct {
			Metrics engine.Metrics `json:"metrics"`
		}
		if err := json.NewDecoder(r).Decode(&snap); err != nil {
			return -1, fmt.Errorf("resilience: reading checkpoint %s: %w", path, err)
		}
		return snap.Metrics.EventsProcessed - 1, nil
	}
	r.Discard(len(ckptMagic))
	v, err := binary.ReadVarint(r)
	if err != nil {
		return -1, fmt.Errorf("resilience: corrupt checkpoint %s: source offset", path)
	}
	return max(v, -1), nil
}
