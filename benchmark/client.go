package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the benchmark's HTTP client: keep-alive, so the
// sequential POSTs share one connection and the follower holds one.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

// mark is one observation of the follower: at time t it had received n
// lines (or, for the aggregate workload, seen fold counter n).
type mark struct {
	t time.Time
	n int64
}

// follower reads the followed query's stream on one connection until
// the server ends it.
type follower struct {
	// received is the lines read so far (the highest SSE id for the
	// aggregate workload); the ingest loop reads it for the lap gate.
	received atomic.Int64
	// hashLines is how many leading lines go into sum (pass 0).
	hashLines int64
	sum       hash.Hash
	ended     bool // the stream ended the way the server ends a complete one

	mu    sync.Mutex
	marks []mark

	done chan struct{}
	err  error
}

// follow starts reading the followed query's stream from its first
// line. Matches are followed as NDJSON; the aggregate workload follows
// /stats, whose SSE ids are the fold counter. It does not wait for the
// response: the router sends no header before its first merged line.
func follow(ctx context.Context, c *http.Client, base, id string, aggregate bool, hashLines int) *follower {
	f := &follower{hashLines: int64(hashLines), sum: sha256.New(), done: make(chan struct{})}
	path := "/matches?follow=1"
	if aggregate {
		path = "/stats?follow=1"
	}
	go func() {
		defer close(f.done)
		f.err = f.read(ctx, c, base+"/queries/"+id+path, aggregate)
	}()
	return f
}

func (f *follower) read(ctx context.Context, c *http.Client, url string, aggregate bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("follower panic: %v", r)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if aggregate {
		return f.readSSE(resp.Body)
	}
	return f.readLines(resp.Body)
}

// note records the current count once the reader has consumed every
// complete line the connection delivered, so a burst costs one mark.
func (f *follower) note(r *bufio.Reader, n int64) {
	f.received.Store(n)
	if rest, _ := r.Peek(r.Buffered()); bytes.IndexByte(rest, '\n') >= 0 {
		return
	}
	f.mu.Lock()
	f.marks = append(f.marks, mark{time.Now(), n})
	f.mu.Unlock()
}

// readLine returns the next line without its newline. Lines longer
// than the buffer are assembled in scratch.
func readLine(r *bufio.Reader, scratch []byte) (line, _ []byte, err error) {
	line, err = r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		scratch = append(scratch[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = r.ReadSlice('\n')
			scratch = append(scratch, line...)
		}
		line = scratch
	}
	if err != nil {
		return nil, scratch, err
	}
	return line[:len(line)-1], scratch, nil
}

func (f *follower) readLines(body io.Reader) error {
	r := bufio.NewReaderSize(body, 256<<10)
	var scratch, line []byte
	var n int64
	for {
		var err error
		line, scratch, err = readLine(r, scratch)
		if err == io.EOF {
			// An NDJSON follow has no end marker: the server closes a
			// complete stream cleanly, anything else is a read error.
			f.ended = true
			return nil
		}
		if err != nil {
			return err
		}
		if n < f.hashLines {
			f.sum.Write(line)
			f.sum.Write([]byte{'\n'})
		}
		n++
		f.note(r, n)
	}
}

func (f *follower) readSSE(body io.Reader) error {
	r := bufio.NewReaderSize(body, 64<<10)
	var scratch, line []byte
	var id int64
	for {
		var err error
		line, scratch, err = readLine(r, scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			if id, err = strconv.ParseInt(string(line[4:]), 10, 64); err != nil {
				return fmt.Errorf("stats stream: %w", err)
			}
		case len(line) == 0: // end of one SSE event
			f.note(r, id)
		case bytes.Equal(line, []byte("event: end")):
			f.ended = true
		}
	}
}

// firstAt returns when the follower first held at least n lines. Call
// it after the follower is done, or for counts it has already passed.
func (f *follower) firstAt(n int64) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := sort.Search(len(f.marks), func(i int) bool { return f.marks[i].n >= n })
	if i == len(f.marks) {
		return time.Time{}, false
	}
	return f.marks[i].t, true
}

// waitFor blocks until the follower holds at least n lines.
func (f *follower) waitFor(ctx context.Context, n int64) error {
	for f.received.Load() < n {
		select {
		case <-f.done:
			if f.received.Load() >= n {
				return nil
			}
			return fmt.Errorf("follower stream ended at %d lines, waiting for %d (%v)", f.received.Load(), n, f.err)
		case <-ctx.Done():
			return fmt.Errorf("waiting for line %d of the follower (at %d): %w", n, f.received.Load(), ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// poster sends ingest batches on one connection.
type poster struct {
	c   *http.Client
	url string
	buf []byte
	rd  bytes.Reader
	// posts and failed count every POST and the refused ones.
	posts, failed int
}

// post sends events [lo, hi) of a pass as one NDJSON batch. A refused
// or short batch is counted as failed and reported.
func (p *poster) post(ctx context.Context, s *stream, pass, lo, hi int) error {
	p.buf = s.batch(p.buf[:0], pass, lo, hi)
	p.rd.Reset(p.buf)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/events", &p.rd)
	if err != nil {
		return err
	}
	p.posts++
	resp, err := p.c.Do(req)
	if err != nil {
		p.failed++
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		p.failed++
		return err
	}
	// Nodes and the router both answer {"ingested": n, ...}.
	accepted := struct{ Ingested int }{-1}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(reply, &accepted) != nil || accepted.Ingested != hi-lo {
		p.failed++
		return fmt.Errorf("POST /events (pass %d, events %d-%d): %s: %s", pass, lo, hi, resp.Status, bytes.TrimSpace(reply))
	}
	return nil
}
