package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// options is one invocation of the benchmark.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks the stream (tests); 1 is the benchmark's size.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// paced runs the open-loop phase (tests skip it).
	paced bool
	// scratch is the directory under which WAL scratch is created.
	scratch string
	// spans is where a traced run writes its spans ("" keeps them in
	// memory only).
	spans string
	out   io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// harness carries one run's state between stages.
type harness struct {
	options
	// stage names what the run is doing, for the deadline reports.
	stage atomic.Value
	res   result
	tr    *tracer
}

// minSamples is how many visibility samples make a run's latency
// figures valid.
const minSamples = 300

// warmupBatches is the untimed lead-in that fills pools, grows buffers
// and starts the lazy pipelines before anything is measured.
const warmupBatches = 32

// in runs one stage under its own deadline. A timeout, an error or a
// panic comes back naming the stage.
func (b *harness) in(ctx context.Context, name string, budget time.Duration, fn func(context.Context) error) (err error) {
	b.stage.Store(name)
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stage %s: panic: %v\n%s", name, r, debug.Stack())
		}
	}()
	if err := fn(ctx); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("stage %s: deadline of %s exceeded: %w", name, budget, err)
		}
		return fmt.Errorf("stage %s: %w", name, err)
	}
	return nil
}

func (b *harness) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{v, unit}
	fmt.Fprintf(b.out, "%-32s %16.4f %s\n", name, v, unit)
}

// env is one stood-up system with its inputs, reference and clients.
type env struct {
	s   *stream
	ref *reference
	sut *sut
	c   *http.Client
	fol *follower
	dir string
	// heapBase is HeapAlloc after a forced collection just before the
	// servers started.
	heapBase uint64
	// pass and pos are the stream position of the next event to send.
	pass, pos int
	post      poster
	// posted is the span of the last POST (-1 untraced), the parent of
	// the span that times its output becoming visible.
	posted int
}

// matchLogSize makes lapping the follower impossible: send never starts
// pass p before the follower holds every line of passes 0..p-2, so the
// follower is never more than two passes of lines behind the log's tail.
func matchLogSize(ref *reference) int { return max(4096, 2*ref.lines+64) }

// setup is stage (1): generate, render, compute the reference, start
// the servers, register, open the follower, warm up.
func (b *harness) setup(ctx context.Context) (_ *env, err error) {
	e := &env{c: newClient()}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()
	if e.s, err = generate(b.w.stream, b.seed, b.scale); err != nil {
		return nil, err
	}
	if e.ref, err = computeReference(b.w, e.s); err != nil {
		return nil, err
	}
	e.s.events = nil
	if e.dir, err = os.MkdirTemp(b.scratch, "wal-"); err != nil {
		return nil, err
	}
	e.heapBase = liveHeap()
	if e.sut, err = startSUT(ctx, b.w, e.s.schema, matchLogSize(e.ref), e.dir); err != nil {
		return nil, err
	}
	if err := register(ctx, e.c, e.sut.url, b.w.specs()); err != nil {
		return nil, err
	}
	// The follower outlives this stage; it ends with the servers.
	e.fol = follow(context.WithoutCancel(ctx), e.c, e.sut.url, b.w.queries[0].ID, b.w.aggregate, e.ref.lines)
	e.post = poster{c: e.c, url: e.sut.url}
	for i := 0; i < warmupBatches && e.pass == 0; i++ {
		if _, err := e.send(ctx, pacedBatch, nil, -1); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// teardown stops what setup started and removes its scratch.
func (e *env) teardown() {
	if e.sut != nil {
		e.sut.close()
		e.sut = nil
	}
	if e.fol != nil {
		<-e.fol.done
	}
	e.c.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// send posts the next size events (fewer at the end of a pass) and
// advances the stream position. Entering pass p it first waits for the
// follower to hold all of passes 0..p-2, which the match log's size
// relies on (matchLogSize); a follower that keeps up never waits.
func (e *env) send(ctx context.Context, size int, tr *tracer, batch int) (sent int, err error) {
	if e.pos == 0 && e.pass >= 2 {
		if err := e.fol.waitFor(ctx, int64(e.pass-1)*int64(e.ref.lines)); err != nil {
			return 0, err
		}
	}
	lo, hi := e.pos, min(e.pos+size, len(e.s.times))
	e.posted = tr.begin("client.post", -1, batch)
	err = e.post.post(ctx, e.s, e.pass, lo, hi)
	tr.finish(e.posted)
	if e.pos = hi; hi == len(e.s.times) {
		e.pass, e.pos = e.pass+1, 0
	}
	return hi - lo, err
}

// final is how many followed lines are final once everything before the
// stream position has been evaluated (the C_k of the paced phase).
func (e *env) final() int64 {
	pass, pos := e.pass, e.pos
	if pos == 0 {
		if pass == 0 {
			return 0
		}
		// The last pass's open windows close with the next pass's first
		// event, not before.
		pass, pos = pass-1, len(e.s.times)
	}
	return int64(pass)*int64(e.ref.lines) + int64(e.ref.cum[(pos-1)/pacedBatch])
}

// sample is one paced batch that made output final: the batch was due
// at due, and its output is complete once the follower holds upTo.
type sample struct {
	due    time.Time
	upTo   int64
	batch  int
	posted int // span of the batch's POST
}

// pacedPhase is stage (2): an open loop posting pacedBatch events every
// fixed interval for d. It returns the batches whose visibility is to
// be timed and how late each batch left.
func (b *harness) pacedPhase(ctx context.Context, e *env, d time.Duration) (samples []sample, late []time.Duration, err error) {
	err = b.in(ctx, "paced", d+30*time.Second, func(ctx context.Context) error {
		interval := time.Duration(float64(time.Second) * pacedBatch / float64(b.w.pacedRate()))
		n := int(d / interval)
		t0 := time.Now()
		prev := e.final()
		for k := 0; k < n && e.pass < e.s.maxPasses(); k++ {
			due := t0.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			late = append(late, time.Since(due))
			if _, err := e.send(ctx, pacedBatch, b.tr, k); err != nil {
				return err
			}
			if c := e.final(); c > prev {
				samples = append(samples, sample{due, c, k, e.posted})
				prev = c
			}
		}
		return nil
	})
	return samples, late, err
}

// saturated is what the closed-loop phase measured.
type saturated struct {
	events int
	// passes are the durations of the whole passes, first POST to last
	// reply; every pass is the same work.
	passes []time.Duration
	// memBase and mem bracket the phase: read when it starts and once
	// the pipelines have gone idle after it.
	memBase, mem runtime.MemStats
}

// meanPass is the mean duration of the whole passes. The mean, not the
// median: a mailbox holds up to 16 batches, a quarter of a short pass,
// so single passes trade time with their neighbours while their sum
// does not.
func (s saturated) meanPass() time.Duration {
	var sum time.Duration
	for _, d := range s.passes {
		sum += d
	}
	return sum / time.Duration(max(1, len(s.passes)))
}

// halfPassHeap posts the first half of pass 0 back to back, waits for
// the pipelines to go idle and reads the live heap there: the windows
// are full and no pass boundary has been crossed, so the reading is the
// same state on every run.
func (b *harness) halfPassHeap(ctx context.Context, e *env) (live uint64, err error) {
	err = b.in(ctx, "ramp", 60*time.Second, func(ctx context.Context) error {
		for e.pass == 0 && e.pos < len(e.s.times)/2 {
			if _, err := e.send(ctx, satBatch, nil, -1); err != nil {
				return err
			}
		}
		if err := e.quiesce(ctx); err != nil {
			return err
		}
		live = liveHeap()
		return nil
	})
	return live, err
}

// satPasses sizes the closed loop in whole passes: half the run at the
// workload's nominal saturation rate.
func (b *harness) satPasses(e *env, total time.Duration) int {
	return max(2, int(math.Ceil((total/2).Seconds()*float64(b.w.satRate)/float64(len(e.s.times)))))
}

// closedLoop is stage (3): satBatch events per POST back to back to the
// end of the current pass and then for `passes` whole passes. The work
// is fixed, so a run measures the same events on every commit; only a
// system several times slower than the one the sizes were taken on is
// cut short, at the first pass boundary past 3*d.
func (b *harness) closedLoop(ctx context.Context, e *env, passes int, d time.Duration) (sat saturated, err error) {
	err = b.in(ctx, "saturation", 4*d+30*time.Second, func(ctx context.Context) error {
		runtime.ReadMemStats(&sat.memBase)
		t0 := time.Now()
		last := min(e.pass+passes+min(e.pos, 1), e.s.maxPasses())
		for e.pass < last && (len(sat.passes) == 0 || time.Since(t0) < 3*d) {
			whole, start := e.pos == 0, time.Now()
			for pass := e.pass; e.pass == pass; {
				n, err := e.send(ctx, satBatch, b.tr, -1)
				if err != nil {
					return err
				}
				sat.events += n
			}
			if whole {
				sat.passes = append(sat.passes, time.Since(start))
			}
		}
		sort.Slice(sat.passes, func(i, j int) bool { return sat.passes[i] < sat.passes[j] })
		return nil
	})
	return sat, err
}

// finish ends the measurement: it completes a pass the open loop left
// unfinished (every pass must yield pass 0's output), closes the
// allocation bracket once the pipelines are idle, drains, waits for the
// follower's stream to end and runs stage (4), the check against the
// reference.
func (b *harness) finish(ctx context.Context, e *env, sat *saturated) error {
	err := b.in(ctx, "drain", 90*time.Second, func(ctx context.Context) error {
		for e.pos != 0 {
			if _, err := e.send(ctx, satBatch, nil, -1); err != nil {
				return err
			}
		}
		if err := e.quiesce(ctx); err != nil {
			return err
		}
		runtime.ReadMemStats(&sat.mem)
		if err := e.sut.drain(ctx); err != nil {
			return err
		}
		select {
		case <-e.fol.done:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("follower stream did not end after drain: %w", ctx.Err())
		}
	})
	if err != nil {
		return err
	}
	return b.in(ctx, "check", 30*time.Second, func(ctx context.Context) error {
		expected, wrong, err := b.check(ctx, e)
		b.res.Attempted += e.post.posts + expected
		b.res.Failed += e.post.failed + wrong
		return err
	})
}

// queryInfo is the part of a node's query state the benchmark reads.
type queryInfo struct {
	ID         string `json:"id"`
	Events     int64  `json:"events"`
	Shed       int64  `json:"shed"`
	Matches    int64  `json:"matches"`
	QueueDepth int    `json:"queue_depth"`
	AggVersion int64  `json:"agg_version"`
}

// getJSON decodes a GET reply.
func getJSON(ctx context.Context, c *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// nodeQueries lists every node's queries, over HTTP.
func (e *env) nodeQueries(ctx context.Context) ([][]queryInfo, error) {
	out := make([][]queryInfo, len(e.sut.nodes))
	for i := range e.sut.nodes {
		var list struct {
			Queries []queryInfo `json:"queries"`
		}
		if err := getJSON(ctx, e.c, e.sut.listeners[i].url+"/queries", &list); err != nil {
			return nil, err
		}
		out[i] = list.Queries
	}
	return out, nil
}

// quiesce waits until every mailbox is empty and the match counts have
// stopped moving, so a heap or allocation reading sees the state at a
// stream position and not a varying number of blocks in flight.
func (e *env) quiesce(ctx context.Context) error {
	var last int64 = -1
	for {
		nodes, err := e.nodeQueries(ctx)
		if err != nil {
			return err
		}
		var depth int
		var done int64
		for _, qs := range nodes {
			for _, q := range qs {
				depth += q.QueueDepth
				done += q.Matches + q.AggVersion
			}
		}
		if depth == 0 && done == last {
			return nil
		}
		last = done
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for the pipelines to go idle: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// check is stage (4): the served output against the reference. It
// returns how many outputs were expected and how many were wrong.
func (b *harness) check(ctx context.Context, e *env) (expected, wrong int, err error) {
	if e.fol.err != nil {
		return 0, 0, fmt.Errorf("follower: %w", e.fol.err)
	}
	passes := int64(e.pass)
	if e.pos != 0 {
		return 0, 0, fmt.Errorf("stream stopped inside pass %d at event %d", e.pass, e.pos)
	}
	miss := func(what string, got, want int64) {
		if got != want {
			fmt.Fprintf(b.out, "MISMATCH %s: got %d, want %d\n", what, got, want)
			wrong += int(max(got-want, want-got))
		}
	}
	want := passes * int64(e.ref.lines)
	expected += int(want)
	miss("followed lines", e.fol.received.Load(), want)
	if !e.fol.ended {
		fmt.Fprintf(b.out, "MISMATCH follower stream was cut short\n")
		wrong++
	}
	if b.w.aggregate {
		var doc json.RawMessage
		if err := getJSON(ctx, e.c, e.sut.url+"/queries/"+b.w.queries[0].ID+"/stats", &doc); err != nil {
			return 0, 0, err
		}
		count, sum, err := parseStats(doc)
		if err != nil {
			return 0, 0, err
		}
		if count != float64(passes)*e.ref.aggCount || sum != float64(passes)*e.ref.aggSum {
			fmt.Fprintf(b.out, "MISMATCH aggregate: got count %v sum %v, want %v passes of count %v sum %v\n",
				count, sum, passes, e.ref.aggCount, e.ref.aggSum)
			wrong += e.ref.lines
		}
	} else if got := [32]byte(e.fol.sum.Sum(nil)); got != e.ref.sha {
		fmt.Fprintf(b.out, "MISMATCH pass 0: served sha256 %x, reference %x\n", got, e.ref.sha)
		wrong += e.ref.lines
	}
	// Every registration's match count, summed over the nodes.
	nodes, err := e.nodeQueries(ctx)
	if err != nil {
		return 0, 0, err
	}
	got := map[string]int64{}
	var shed int64
	for _, qs := range nodes {
		for _, q := range qs {
			got[q.ID] += q.Matches + q.AggVersion
			shed += q.Shed
		}
	}
	miss("shed events", shed, 0)
	for i, spec := range b.w.specs() {
		var per int64
		if i < len(e.ref.perQuery) {
			per = e.ref.perQuery[i]
		}
		if i > 0 {
			expected += int(passes * per)
		}
		miss("matches of "+spec.ID, got[spec.ID], passes*per)
	}
	return expected, wrong, nil
}

// percentile is the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// visible turns the paced samples into visibility latencies, sorted.
func visible(e *env, samples []sample, tr *tracer) (lat []time.Duration, missing int) {
	for _, s := range samples {
		at, ok := e.fol.firstAt(s.upTo)
		if !ok {
			missing++
			continue
		}
		lat = append(lat, at.Sub(s.due))
		tr.add("client.visible", s.due, at, s.posted, s.batch)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat, missing
}

func newHarness(opt options) *harness {
	b := &harness{options: opt, res: result{Metrics: map[string]metric{}}}
	b.stage.Store("start")
	return b
}

// run executes the whole benchmark once.
func (b *harness) run(ctx context.Context) (result, error) {
	fmt.Fprintf(b.out, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d scale %g\n",
		b.w.name, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0), b.scale)
	if b.trace {
		b.tr = newTracer()
	}

	// Stage 1, repeated: setup_s is the median of the set-ups, and the
	// last one stays up for the measurement.
	var e *env
	var setups []time.Duration
	defer func() {
		if e != nil {
			e.teardown()
		}
	}()
	for i := 0; i < b.setups; i++ {
		if e != nil {
			e.teardown()
			e = nil
		}
		start := time.Now()
		err := b.in(ctx, "setup", 60*time.Second, func(ctx context.Context) (err error) {
			e, err = b.setup(ctx)
			return err
		})
		if err != nil {
			return b.res, err
		}
		setups = append(setups, time.Since(start))
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	fmt.Fprintf(b.out, "stream %d events/pass, %d bytes/pass, %d followed lines/pass (%d bytes), up to %d passes\n",
		len(e.s.times), len(e.s.body), e.ref.lines, e.ref.bytes, e.s.maxPasses())

	if b.trace {
		err := b.traced(ctx, e)
		b.res.Correct = err == nil && b.res.Failed == 0
		return b.res, err
	}

	total := time.Duration(b.seconds * float64(time.Second))
	live, err := b.halfPassHeap(ctx, e)
	if err != nil {
		return b.res, err
	}
	var samples []sample
	var late []time.Duration
	if b.paced {
		if samples, late, err = b.pacedPhase(ctx, e, total/2); err != nil {
			return b.res, err
		}
	}
	sat, err := b.closedLoop(ctx, e, b.satPasses(e, total), total/2)
	if err == nil {
		err = b.finish(ctx, e, &sat)
	}
	if err != nil {
		return b.res, err
	}
	lat, missing := visible(e, samples, nil)
	b.res.Failed += missing
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })

	fmt.Fprintf(b.out, "passes %d, closed loop %d events, %d whole passes of %.3f / %.3f / %.3f s (min / mean / max), %d POSTs\n",
		e.pass, sat.events, len(sat.passes), sat.passes[0].Seconds(), sat.meanPass().Seconds(),
		sat.passes[len(sat.passes)-1].Seconds(), e.post.posts)
	fmt.Fprintf(b.out, "whole passes, sorted: %v\n", sat.passes)
	fmt.Fprintf(b.out, "paced %d batches at %d events/s, %d samples, p99 %.3f ms, generator late p99 %.3f ms\n",
		len(late), b.w.pacedRate(), len(lat), ms(percentile(lat, 0.99)), ms(percentile(late, 0.99)))
	if b.paced && len(lat) < minSamples {
		return b.res, fmt.Errorf("paced phase produced %d samples, need %d", len(lat), minSamples)
	}
	ev := float64(sat.events)
	b.set("events_per_s", float64(len(e.s.times))/sat.meanPass().Seconds(), "events/s")
	b.set("visible_p50_ms", ms(calmMedian(e, samples)), "ms")
	b.set("alloc_bytes_per_event", float64(sat.mem.TotalAlloc-sat.memBase.TotalAlloc)/ev, "B/event")
	b.set("allocs_per_event", float64(sat.mem.Mallocs-sat.memBase.Mallocs)/ev, "allocs/event")
	b.set("live_heap_mb", (float64(live)-float64(e.heapBase))/(1<<20), "MiB")
	b.set("setup_s", setups[len(setups)/2].Seconds(), "s")
	b.res.Correct = b.res.Failed == 0
	return b.res, nil
}

// latencySlices is how many consecutive slices the paced samples are
// cut into for visible_p50_ms.
const latencySlices = 10

// calmMedian is the median visibility latency of the calmest slice of
// the paced phase: the samples are cut into latencySlices consecutive
// slices and the smallest slice median is reported. On two shared cores
// a neighbour's burst moves the median of a whole run by a third; it
// does not last through every slice.
func calmMedian(e *env, samples []sample) time.Duration {
	per := max(1, len(samples)/latencySlices)
	best := time.Duration(math.MaxInt64)
	for lo := 0; lo+per <= len(samples); lo += per {
		if lat, _ := visible(e, samples[lo:lo+per], nil); len(lat) > 0 {
			best = min(best, percentile(lat, 0.5))
		}
	}
	if best == math.MaxInt64 {
		return 0
	}
	return best
}
