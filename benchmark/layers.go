package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/automaton"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run. Everything here times calls from outside: spans go
// around each client call of the HTTP run and around each direct call
// into a layer's public functions while pass 0 is driven through the
// layers in-process. Nothing inside the program is instrumented.

// cost is one layer's measured work over a pass.
type cost struct {
	ns     time.Duration
	allocs uint64
}

// mallocs reads the process allocation count. It stops the world, so
// it stays outside every span.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// measure runs fn inside a span and charges its time and allocations.
func (c *cost) measure(tr *tracer, name string, parent, batch int, fn func()) {
	before := mallocs()
	c.ns += tr.timed(name, parent, batch, fn)
	c.allocs += mallocs() - before
}

// decodeBatch is the HTTP handler's decode path (server.handleIngest)
// on a batch body: scan lines, BlockDecoder.Add, Finish.
func decodeBatch(dec *engine.BlockDecoder, body []byte) ([]event.Event, error) {
	defer dec.Reset()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 && !dec.Add(n, line) {
			break
		}
	}
	return dec.Finish()
}

// compiled is one registration taken through parse and compile.
type compiled struct {
	spec server.QuerySpec
	auto *automaton.Automaton
}

// compileAll times query.Parse and automaton.Compile per registration.
func (b *harness) compileAll(schema *event.Schema) (out []compiled, parse, compile time.Duration, err error) {
	for _, spec := range b.w.specs() {
		var pat *pattern.Pattern
		parse += b.tr.timed("query.parse", -1, -1, func() { pat, err = query.Parse(spec.Query) })
		if err != nil {
			return nil, 0, 0, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		c := compiled{spec: spec}
		compile += b.tr.timed("automaton.compile", -1, -1, func() { c.auto, err = automaton.Compile(pat, schema) })
		if err != nil {
			return nil, 0, 0, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		out = append(out, c)
	}
	return out, parse, compile, nil
}

// library is what driving pass 0 through decode, WAL, step and encode
// on one goroutine measured.
type library struct {
	bytesIn                   int
	decode, wal, step, encode cost
	walBytes                  int64
	matches                   int
	matchBytes                int64
	metrics                   engine.Metrics // followed query
	// parts counts the events per cluster partition.
	parts [2]int
}

// runLibrary drives pass 0 through the layers below the server, one
// call after the other on this goroutine, so each span is that layer's
// self time. aggregate chooses the followed query's fold path; with
// aggregate false an AGGREGATE query is stepped enumerating instead.
func (b *harness) runLibrary(e *env, qs []compiled, aggregate bool, dir string) (lib library, err error) {
	var log *wal.Log
	if b.w.wal {
		if log, err = wal.Open(wal.Options{Dir: dir, Schema: e.s.schema, Fsync: wal.FsyncNever}); err != nil {
			return lib, err
		}
		defer log.Close()
	}
	var runners []*engine.Runner
	for i, q := range qs[:len(b.w.queries)] {
		opts := []engine.Option{engine.WithFilter(q.spec.Filter)}
		if i == 0 && aggregate {
			plan, err := engine.CompileAggregate(q.auto, q.auto.Pattern.Agg)
			if err != nil {
				return lib, err
			}
			opts = append(opts, engine.WithAggregation(engine.NewAggregator(plan)), engine.WithAggregateOnly(true))
		}
		runners = append(runners, engine.New(q.auto, opts...))
	}
	dec := engine.NewBlockDecoder(e.s.schema)
	sum := sha256.New()
	encode := func(ms []engine.Match, followed bool) error {
		for _, m := range ms {
			line, err := engine.MatchJSON(m, e.s.schema)
			if err != nil {
				return err
			}
			lib.matches++
			lib.matchBytes += int64(len(line))
			if followed {
				sum.Write(line)
				sum.Write([]byte{'\n'})
			}
		}
		return nil
	}
	var body []byte
	n := len(e.s.times)
	for lo, batch := 0, 0; lo < n; lo, batch = lo+satBatch, batch+1 {
		hi := min(lo+satBatch, n)
		body = e.s.batch(body[:0], 0, lo, hi)
		lib.bytesIn += len(body)
		var evs []event.Event
		root := b.tr.begin("library.batch", -1, batch)
		lib.decode.measure(b.tr, "decode", root, batch, func() { evs, err = decodeBatch(dec, body) })
		if err != nil {
			return lib, err
		}
		if log != nil {
			lib.wal.measure(b.tr, "wal.append", root, batch, func() { _, err = log.AppendBatch(evs) })
			if err != nil {
				return lib, err
			}
		}
		for i := range evs {
			evs[i].Seq = lo + i
			lib.parts[cluster.SlotOf(evs[i].Attrs[0], clusterSlots)*2/clusterSlots]++
		}
		for ri, r := range runners {
			var ms []engine.Match
			lib.step.measure(b.tr, "engine.step", root, batch, func() { ms, err = r.StepBlock(event.Block{Events: evs}) })
			if err != nil {
				return lib, err
			}
			lib.encode.measure(b.tr, "encode", root, batch, func() { err = encode(ms, ri == 0) })
			if err != nil {
				return lib, err
			}
		}
		b.tr.finish(root)
	}
	for ri, r := range runners {
		var ms []engine.Match
		lib.step.measure(b.tr, "engine.step", -1, -1, func() { ms = r.Flush() })
		lib.encode.measure(b.tr, "encode", -1, -1, func() { err = encode(ms, ri == 0) })
		if err != nil {
			return lib, err
		}
	}
	lib.metrics = runners[0].Metrics()
	if log != nil {
		lib.walBytes = log.SizeBytes()
	}
	if !b.w.aggregate && [32]byte(sum.Sum(nil)) != e.ref.sha {
		return lib, fmt.Errorf("library pass: followed query's lines differ from the reference")
	}
	if got := lib.metrics.Matches; got != int64(e.ref.lines) {
		return lib, fmt.Errorf("library pass: followed query made %d matches, reference %d", got, e.ref.lines)
	}
	return lib, nil
}

// served is what driving pass 0 through one in-process server measured.
type served struct {
	addQuery  time.Duration // mean per registration
	ingest    time.Duration // sum of Server.Ingest calls
	wall      time.Duration // first Ingest to last return, decode and polling excluded
	drain     time.Duration
	read      time.Duration // Server.Matches of the followed query
	lines     int           // followed query's output: match lines read, or folds
	readLines int           // lines Server.Matches returned
	depthMax  int
	shed      int64
	delivered int64 // sum over queries of events accepted
	queries   int
}

// runServer drives pass 0 through a single in-process server with the
// workload's registrations: Server.AddQuery, Ingest, Queries, Drain,
// Matches.
func (b *harness) runServer(ctx context.Context, e *env, dir string) (sv served, err error) {
	s, err := server.New(nodeConfig(b.w, e.s.schema, matchLogSize(e.ref), dir))
	if err != nil {
		return sv, err
	}
	defer s.Close()
	specs := b.w.specs()
	for _, spec := range specs {
		sv.addQuery += b.tr.timed("server.add_query", -1, -1, func() { _, err = s.AddQuery(spec) })
		if err != nil {
			return sv, err
		}
	}
	sv.addQuery /= time.Duration(len(specs))
	sv.queries = len(specs)

	// Queue depth is read right after each Ingest, from this goroutine:
	// Server.Queries from a second one races with the lazy pipeline
	// start inside Ingest (queryState.sup), which is the server's to fix.
	dec := engine.NewBlockDecoder(e.s.schema)
	var body []byte
	var aside time.Duration // decode and polling, not part of serving
	n := len(e.s.times)
	start := time.Now()
	for lo, batch := 0, 0; lo < n; lo, batch = lo+satBatch, batch+1 {
		body = e.s.batch(body[:0], 0, lo, min(lo+satBatch, n))
		var evs []event.Event
		root := b.tr.begin("server.batch", -1, batch)
		aside += b.tr.timed("decode", root, batch, func() { evs, err = decodeBatch(dec, body) })
		if err != nil {
			return sv, err
		}
		sv.ingest += b.tr.timed("server.ingest", root, batch, func() { _, err = s.Ingest(evs) })
		if err != nil {
			return sv, err
		}
		aside += b.tr.timed("server.queries", root, batch, func() {
			for _, q := range s.Queries() {
				sv.depthMax = max(sv.depthMax, q.QueueDepth)
			}
		})
		b.tr.finish(root)
	}
	sv.wall = time.Since(start) - aside
	sv.drain = b.tr.timed("server.drain", -1, -1, func() { err = s.Drain(ctx) })
	if err != nil {
		return sv, err
	}
	var lines [][]byte
	sv.read = b.tr.timed("server.matches", -1, -1, func() { lines, err = s.Matches(specs[0].ID, 0) })
	if err != nil {
		return sv, err
	}
	sv.lines, sv.readLines = len(lines), len(lines)
	for _, q := range s.Queries() {
		sv.shed += q.Shed
		sv.delivered += q.Events
		if q.ID == specs[0].ID && b.w.aggregate {
			sv.lines = int(q.AggVersion)
		}
	}
	if sv.lines != e.ref.lines {
		return sv, fmt.Errorf("in-process server: followed query served %d lines, reference %d", sv.lines, e.ref.lines)
	}
	return sv, nil
}

// routed is what driving pass 0 through an in-process router over two
// node servers measured.
type routed struct {
	ingest  time.Duration // sum of Router.IngestNDJSON calls
	wall    time.Duration // first call to last return
	retries int64
}

// runRouter drives pass 0 through Router.IngestNDJSON and reads it back
// through Router.StreamMatches.
func (b *harness) runRouter(ctx context.Context, e *env, dir string) (rt routed, err error) {
	s, err := startSUT(ctx, b.w, e.s.schema, matchLogSize(e.ref), dir)
	if err != nil {
		return rt, err
	}
	defer s.close()
	for _, node := range s.nodes {
		for _, spec := range b.w.specs() {
			if _, err := node.AddQuery(spec); err != nil {
				return rt, err
			}
		}
	}
	lines := 0
	streamed := make(chan error, 1)
	go func() {
		var err error
		b.tr.timed("cluster.stream", -1, -1, func() {
			err = s.router.StreamMatches(ctx, b.w.queries[0].ID, 0, true, func(int64, []byte) error {
				lines++
				return nil
			})
		})
		streamed <- err
	}()
	var body []byte
	n := len(e.s.times)
	start := time.Now()
	for lo, batch := 0, 0; lo < n; lo, batch = lo+satBatch, batch+1 {
		body = e.s.batch(body[:0], 0, lo, min(lo+satBatch, n))
		rt.ingest += b.tr.timed("cluster.ingest", -1, batch, func() { _, err = s.router.IngestNDJSON(body) })
		if err != nil {
			return rt, err
		}
	}
	rt.wall = time.Since(start)
	if err := s.drain(ctx); err != nil {
		return rt, err
	}
	if err := <-streamed; err != nil {
		return rt, err
	}
	if lines != e.ref.lines {
		return rt, fmt.Errorf("in-process router: merged stream has %d lines, reference %d", lines, e.ref.lines)
	}
	rt.retries, _ = s.registry.Value("ses_router_partition_retries_total")
	return rt, nil
}

// perEvent is d per event in nanoseconds.
func perEvent(d time.Duration, events int) float64 { return float64(d.Nanoseconds()) / float64(events) }

// ratio is a/b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is the traced run: a closed loop whose passes alternate
// between tracing off and on (the end-to-end figure and the tracing
// overhead from the same system in the same minute), the open loop
// with spans, then pass 0 through the layers in-process. It prints the
// per-layer metrics.
func (b *harness) traced(ctx context.Context, e *env) error {
	total := time.Duration(b.seconds * float64(time.Second))
	pairs := max(2, b.satPasses(e, total)/2)
	tr := b.tr
	var plain, sat saturated
	for i := 0; i < pairs; i++ {
		b.tr = nil
		off, err := b.closedLoop(ctx, e, 1, total/2)
		b.tr = tr
		if err != nil {
			return err
		}
		on, err := b.closedLoop(ctx, e, 1, total/2)
		if err != nil {
			return err
		}
		plain.passes = append(plain.passes, off.passes...)
		sat.passes = append(sat.passes, on.passes...)
	}
	// The closed loop's POST round trips are its client.post spans (the
	// paced ones carry a batch id).
	var rtt []time.Duration
	for _, sp := range tr.spans {
		if sp.Name == "client.post" && sp.Batch < 0 {
			rtt = append(rtt, time.Duration(sp.End-sp.Start))
		}
	}
	var samples []sample
	var late []time.Duration
	if b.paced {
		var err error
		if samples, late, err = b.pacedPhase(ctx, e, total/2); err != nil {
			return err
		}
	}
	if err := b.finish(ctx, e, &sat); err != nil {
		return err
	}
	lat, missing := visible(e, samples, b.tr)
	b.res.Failed += missing
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })

	// Pass 0 through the layers, each stage in its own scratch.
	n := len(e.s.times)
	var qs []compiled
	var parse, compile time.Duration
	var lib, enum library
	var sv served
	var rt routed
	err := b.in(ctx, "layers", 120*time.Second, func(ctx context.Context) (err error) {
		if qs, parse, compile, err = b.compileAll(e.s.schema); err != nil {
			return err
		}
		if lib, err = b.runLibrary(e, qs, b.w.aggregate, filepath.Join(e.dir, "lib")); err != nil {
			return err
		}
		if b.w.aggregate {
			// The same pattern enumerating: the difference is what the
			// fold costs or saves inside StepBlock.
			if enum, err = b.runLibrary(e, qs, false, filepath.Join(e.dir, "enum")); err != nil {
				return err
			}
		}
		if sv, err = b.runServer(ctx, e, filepath.Join(e.dir, "node")); err != nil {
			return err
		}
		if b.w.cluster {
			rt, err = b.runRouter(ctx, e, filepath.Join(e.dir, "fleet"))
		}
		return err
	})
	if err != nil {
		return err
	}

	e2e := perEvent(plain.meanPass(), n)
	decode, walNs := perEvent(lib.decode.ns, n), perEvent(lib.wal.ns, n)
	step, encode := perEvent(lib.step.ns, n), perEvent(lib.encode.ns, n)
	serve := perEvent(sv.wall, n)
	serverSelf := serve - walNs - step - encode
	httpSelf := e2e - serve - decode
	var routeNs, clusterSelf, skew float64
	if b.w.cluster {
		routeNs = perEvent(rt.wall, n)
		clusterSelf = routeNs - serve - decode
		httpSelf = e2e - routeNs
		skew = float64(max(lib.parts[0], lib.parts[1])) / (float64(n) / 2)
	}
	var fold float64
	if b.w.aggregate {
		fold = step - perEvent(enum.step.ns, n)
	}
	specs := float64(len(qs))
	ev := float64(n)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	b.set("query.parse_us_per_query", us(parse)/specs, "us")
	b.set("automaton.compile_us_per_query", us(compile)/specs, "us")
	b.set("server.add_query_us", us(sv.addQuery), "us")
	b.set("decode.ns_per_event", decode, "ns/event")
	b.set("decode.allocs_per_event", float64(lib.decode.allocs)/ev, "allocs/event")
	b.set("decode.bytes_in_per_event", float64(lib.bytesIn)/ev, "B/event")
	b.set("wal.append_ns_per_event", walNs, "ns/event")
	b.set("wal.allocs_per_event", float64(lib.wal.allocs)/ev, "allocs/event")
	b.set("wal.bytes_per_event", float64(lib.walBytes)/ev, "B/event")
	b.set("engine.step_ns_per_event", step, "ns/event")
	b.set("engine.allocs_per_event", float64(lib.step.allocs)/ev, "allocs/event")
	b.set("engine.max_instances", float64(lib.metrics.MaxSimultaneousInstances), "count")
	b.set("engine.matches_per_kevent", 1000*float64(lib.metrics.Matches)/ev, "matches/kevent")
	b.set("engine.filtered_share", ratio(float64(lib.metrics.EventsFiltered), float64(lib.metrics.EventsProcessed)), "ratio")
	b.set("engine.fold_ns_per_event", fold, "ns/event")
	b.set("encode.ns_per_match", ratio(float64(lib.encode.ns.Nanoseconds()), float64(lib.matches)), "ns/match")
	b.set("encode.bytes_per_match", ratio(float64(lib.matchBytes), float64(lib.matches)), "B/match")
	b.set("server.ingest_ns_per_event", perEvent(sv.ingest, n), "ns/event")
	b.set("server.self_ns_per_event", serverSelf, "ns/event")
	b.set("server.read_ns_per_line", ratio(float64(sv.read.Nanoseconds()), float64(sv.readLines)), "ns/line")
	b.set("server.queue_depth_max", float64(sv.depthMax), "count")
	b.set("server.shed_events", float64(sv.shed), "events")
	b.set("server.delivered_share", float64(sv.delivered)/(ev*float64(sv.queries)), "ratio")
	b.set("server.drain_ms", ms(sv.drain), "ms")
	b.set("http.post_rtt_p50_us", us(percentile(rtt, 0.5)), "us")
	b.set("http.post_rtt_p99_us", us(percentile(rtt, 0.99)), "us")
	b.set("http.self_ns_per_event", httpSelf, "ns/event")
	b.set("cluster.ingest_ns_per_event", perEvent(rt.ingest, n), "ns/event")
	b.set("cluster.self_ns_per_event", clusterSelf, "ns/event")
	b.set("cluster.partition_skew", skew, "ratio")
	b.set("cluster.retries", float64(rt.retries), "count")
	b.set("client.visible_p99_ms", ms(percentile(lat, 0.99)), "ms")
	b.set("client.visible_samples", float64(len(lat)), "count")
	b.set("client.gen_late_p99_ms", ms(percentile(late, 0.99)), "ms")
	b.set("ledger.library_events_per_s", 1e9/(decode+step+encode), "events/s")
	// A self time below zero means the stage above it overlapped this
	// one on the second core; counting it as zero makes the sum exceed
	// the end-to-end time by exactly that overlap.
	b.set("ledger.sum_over_e2e", (decode+walNs+step+encode+
		math.Max(0, serverSelf)+math.Max(0, httpSelf)+math.Max(0, clusterSelf))/e2e, "ratio")
	b.set("trace.overhead_share", perEvent(sat.meanPass(), n)/e2e-1, "ratio")
	if b.spans != "" {
		if err := b.tr.write(b.spans); err != nil {
			return err
		}
		fmt.Fprintf(b.out, "%d spans written to %s\n", len(b.tr.spans), b.spans)
	}
	return nil
}
