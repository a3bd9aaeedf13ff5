package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/bench"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/server"
)

// streamSpec shapes a generated stream: patients following the chemo
// protocol (6 cycles 21 days apart, 20 noise types), each starting
// gapHours after the previous one. Even staggering, not the generator's
// random start spread, keeps the number of patients per WITHIN window
// the same along the stream and from seed to seed: the all-'P' group
// pattern's match count is exponential in that number, and with random
// starts it moved by a factor of two between seeds.
type streamSpec struct {
	patients    int
	gapHours    int
	noisePerDay float64
}

var (
	// noiseStream is 91 % laboratory noise, about 15 patients in treatment
	// at a time (9.5 days between starts): the engine filters nearly
	// everything, so decode, HTTP and routing do the work.
	noiseStream = streamSpec{patients: 400, gapHours: 228, noisePerDay: 6.0}
	// overlapStream is mostly medication events. gapHours was tuned once
	// (README, "Sizes") so the group pattern yields 5 to 10 matches per
	// event.
	overlapStream = streamSpec{patients: 100, gapHours: 756, noisePerDay: 0.5}
)

// groupPatternText is Experiment 2's P3 in the query language: every
// variable of the first set matches the same type, the case of the
// paper's Theorem 3.
const groupPatternText = `PATTERN PERMUTE(c, d, p+) THEN (b)
WHERE c.L = 'P' AND d.L = 'P' AND p.L = 'P' AND b.L = 'B'
WITHIN 264h`

// clusterQueryText is singleton-only and joined on the partition key,
// so a two-partition evaluation is byte-identical to one node's and the
// single-node library reference stays valid.
const clusterQueryText = `PATTERN PERMUTE(c, d, p) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
  AND c.ID = d.ID AND c.ID = p.ID AND d.ID = b.ID
WITHIN 264h`

// workload is one traffic mix: a stream, the queries registered
// against it and the serving topology it goes through.
type workload struct {
	name   string
	stream streamSpec
	// queries are registered in order; the follower reads queries[0].
	queries []server.QuerySpec
	// sparse is how many never-matching registrations follow them (the
	// many-tenants shape of internal/bench's scaling benchmark).
	sparse int
	// wal turns the durable ingest log on (fsync=never).
	wal bool
	// cluster serves through a router over two partition nodes.
	cluster bool
	// aggregate follows /stats (SSE fold counter) instead of /matches.
	aggregate bool
	// satRate is the workload's saturation rate in events/s on the
	// commit and sandbox the benchmark was defined on (README, "Sizes").
	// It fixes the work of a run, never retuned: the closed loop is sized
	// from it and the open loop runs at a fifth of it, so a faster system
	// shows a shorter pass and a lower latency, not a different load.
	satRate int
}

// pacedRate is the open-loop rate in events/s.
func (w workload) pacedRate() int { return w.satRate / 5 }

// sparseSpec is the i-th never-matching registration: its label
// constants occur in no generated stream, so the routing index can
// prove it irrelevant to every event.
func sparseSpec(i int) server.QuerySpec {
	return server.QuerySpec{ID: fmt.Sprintf("s%d", i), Query: fmt.Sprintf(
		"PATTERN PERMUTE(a) THEN (z)\nWHERE a.L = 'X%d' AND z.L = 'Y%d' AND a.ID = z.ID\nWITHIN 264h", i, i)}
}

// specs lists every registration of the workload in order.
func (w workload) specs() []server.QuerySpec {
	out := append([]server.QuerySpec(nil), w.queries...)
	for i := 0; i < w.sparse; i++ {
		out = append(out, sparseSpec(i))
	}
	return out
}

func workloads() []workload {
	q1 := server.QuerySpec{ID: "q1", Query: paperdata.QueryQ1Text, Filter: true}
	multi := []server.QuerySpec{q1}
	for i, text := range bench.ServerQueryTexts[1:] {
		multi = append(multi, server.QuerySpec{ID: fmt.Sprintf("q%d", i+2), Query: text, Filter: true})
	}
	return []workload{
		{name: "q1_noise", stream: noiseStream, queries: []server.QuerySpec{q1}, satRate: 550000},
		{name: "multi_query_wal", stream: noiseStream, queries: multi, sparse: 61, wal: true, satRate: 370000},
		{name: "group_enumerate", stream: overlapStream, satRate: 13500,
			queries: []server.QuerySpec{{ID: "g", Query: groupPatternText, Filter: true}}},
		{name: "group_aggregate", stream: overlapStream, aggregate: true, satRate: 29000,
			queries: []server.QuerySpec{{ID: "g", Query: groupPatternText + "\nAGGREGATE count, sum(p.V)", Filter: true}}},
		{name: "cluster_2p", stream: noiseStream, cluster: true, satRate: 190000,
			queries: []server.QuerySpec{{ID: "c", Query: clusterQueryText, Filter: true}}},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Ingest lines are `{"time":<11 digits>,"attrs":{...}}`: the time sits
// at a fixed offset with a fixed width, so a replayed pass is the same
// bytes with the digits patched.
const (
	timePrefix = `{"time":`
	timeDigits = 11
	// timeBase is the first event's time. Eleven digits leave room for
	// hundreds of passes before the width would change.
	timeBase  = 10_000_000_000
	timeLimit = 99_999_999_999
)

// stream is one pass of generated input: the events (for the library
// reference) and the same events rendered as ingest NDJSON.
type stream struct {
	schema *event.Schema
	// events carry Seq = position and Time from timeBase. They feed the
	// library reference and are dropped before the servers start.
	events []event.Event
	times  []int64 // pass 0 event times, kept for patching later passes
	body   []byte  // NDJSON of pass 0
	off    []int   // off[i] = start of line i in body; off[n] = len(body)
	// stride displaces consecutive passes by more than span + τ, so no
	// match spans a pass boundary and every pass yields pass 0's matches.
	stride int64
}

// within is the WITHIN of every benchmark query.
const within = int64(264 * event.Hour)

// generate builds the workload's stream for a seed. scale shrinks the
// patient count, and with it the stream's length but not its density;
// tests use it to run every workload in well under a second.
func generate(spec streamSpec, seed int64, scale float64) (*stream, error) {
	patients := max(2, int(math.Round(float64(spec.patients)*scale)))
	var src []event.Event
	var schema *event.Schema
	for i := 0; i < patients; i++ {
		rel, err := chemo.Generate(chemo.Config{Patients: 1, CyclesPerPatient: 6, CycleGapDays: 21,
			NoisePerDay: spec.noisePerDay, NoiseTypes: 20, Seed: seed*int64(spec.patients) + int64(i)})
		if err != nil {
			return nil, err
		}
		schema = rel.Schema()
		shift := event.Time(i*spec.gapHours) * event.Time(event.Hour)
		for _, e := range rel.Events() {
			e.Time += shift
			e.Attrs[0] = event.Int(int64(i + 1))
			src = append(src, e)
		}
	}
	sort.SliceStable(src, func(i, j int) bool { return src[i].Time < src[j].Time })
	s := &stream{
		schema: schema,
		events: make([]event.Event, len(src)),
		times:  make([]int64, len(src)),
		off:    make([]int, 0, len(src)+1),
	}
	shift := timeBase - int64(src[0].Time)
	vals := make([]event.Value, 4*len(src))
	s.body = make([]byte, 0, 72*len(src))
	for i := range src {
		a := vals[4*i : 4*i+4 : 4*i+4]
		copy(a, src[i].Attrs)
		// Quarter units are exact in binary, so a sum over V is the same
		// in any association order and the aggregate check can be exact.
		a[2] = event.Float(math.Round(a[2].Float64()*4) / 4)
		e := event.Event{Seq: i, Time: src[i].Time + event.Time(shift), Attrs: a}
		s.events[i], s.times[i] = e, int64(e.Time)
		s.off = append(s.off, len(s.body))
		s.body = append(s.body, timePrefix...)
		s.body = strconv.AppendInt(s.body, int64(e.Time), 10)
		s.body = append(s.body, `,"attrs":{"ID":`...)
		s.body = strconv.AppendInt(s.body, a[0].Int64(), 10)
		s.body = append(s.body, `,"L":"`...)
		s.body = append(s.body, a[1].Str()...)
		s.body = append(s.body, `","V":`...)
		s.body = strconv.AppendFloat(s.body, a[2].Float64(), 'f', -1, 64)
		s.body = append(s.body, `,"U":"`...)
		s.body = append(s.body, a[3].Str()...)
		s.body = append(s.body, "\"}}\n"...)
	}
	s.off = append(s.off, len(s.body))
	span := s.times[len(s.times)-1] - timeBase
	s.stride = span + within + 1
	if timeBase+s.stride > timeLimit {
		return nil, fmt.Errorf("stream span %d s leaves no room for a second pass", span)
	}
	return s, nil
}

// maxPasses is how many passes fit before the time width would change.
func (s *stream) maxPasses() int { return int((timeLimit - timeBase) / s.stride) }

// batch appends the NDJSON of events [lo, hi) of the given pass to dst.
func (s *stream) batch(dst []byte, pass, lo, hi int) []byte {
	start := len(dst)
	dst = append(dst, s.body[s.off[lo]:s.off[hi]]...)
	if pass == 0 {
		return dst
	}
	shift := int64(pass) * s.stride
	var digits [timeDigits]byte
	for i := lo; i < hi; i++ {
		at := start + s.off[i] - s.off[lo] + len(timePrefix)
		strconv.AppendInt(digits[:0], s.times[i]+shift, 10)
		copy(dst[at:at+timeDigits], digits[:])
	}
	return dst
}
