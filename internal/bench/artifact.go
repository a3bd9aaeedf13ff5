package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/chemo"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/wal"
)

// ingestBlockRows is the batch size the block-path benchmarks feed per
// StepBlock call, sized like a typical HTTP ingest batch.
const ingestBlockRows = 256

// ingestNDJSON renders a dataset's events as HTTP ingest lines
// ({"time": T, "attrs": {...}}), one event per line, for the decoder
// benchmark.
func ingestNDJSON(d Dataset) ([][]byte, error) {
	schema := d.Rel.Schema()
	lines := make([][]byte, d.Rel.Len())
	for i := range lines {
		e := d.Rel.Event(i)
		attrs := make(map[string]any, schema.NumFields())
		for f := 0; f < schema.NumFields(); f++ {
			name := schema.Field(f).Name
			switch v := e.Attrs[f]; v.Kind() {
			case event.KindString:
				attrs[name] = v.Str()
			case event.KindInt:
				attrs[name] = v.Int64()
			case event.KindFloat:
				attrs[name] = v.Float64()
			}
		}
		b, err := json.Marshal(struct {
			Time  int64          `json:"time"`
			Attrs map[string]any `json:"attrs"`
		}{int64(e.Time), attrs})
		if err != nil {
			return nil, err
		}
		lines[i] = b
	}
	return lines, nil
}

// ArtifactEntry is one benchmark measurement of the machine-readable
// baseline artifact: the standard testing.B statistics plus the
// experiment's own measured parameter (maxΩ) and the match count,
// which doubles as a correctness fingerprint — a regression that
// changes the result set shows up as a diff in the artifact, not just
// as a timing blip.
type ArtifactEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MaxOmega    int64   `json:"max_omega"`
	Matches     int     `json:"matches"`
}

// Artifact is the JSON document written by `sesbench -json`: enough
// environment metadata to judge whether two artifacts are comparable,
// the exact command that regenerates it, and the measurements.
type Artifact struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Profile    string `json:"profile"`
	Seed       int64  `json:"seed"`
	Regenerate string `json:"regenerate"`
	// CalibrationNs is the ns/op of the calibration workload, measured
	// in the same process and rounds as the entries. Compare scales
	// the baseline's ns/op by the ratio of the two artifacts'
	// calibrations, so the gate judges the code, not the machine.
	CalibrationNs float64         `json:"calibration_ns_per_op,omitempty"`
	Entries       []ArtifactEntry `json:"entries"`
}

// calibration is the gate's yardstick: a fixed workload that runs no
// repository code. It hashes a buffer, fills a map and sorts a slice,
// the arithmetic, memory and allocation mix an engine step pays, so
// its time moves with the machine and not with the code under test.
var calibration = artifactCase{name: "calibration", run: func() (int64, int, error) {
	sum := sha256.Sum256(make([]byte, 64<<10))
	m := make(map[uint32]int)
	xs := make([]uint32, 4096)
	x := uint32(sum[0]) | 1
	for i := range xs {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		xs[i] = x
		m[x%8192] = i
	}
	slices.Sort(xs)
	return 0, len(m), nil
}}

// artifactCase is one benchmark of the artifact suite: run returns
// (maxΩ, matches) for a single evaluation, and is executed b.N times
// under alloc accounting by testing.Benchmark.
type artifactCase struct {
	name string
	run  func() (int64, int, error)
}

// artifactCases builds the benchmark suite over the prepared datasets
// and returns a cleanup releasing its scratch directories. The
// selection mirrors the experiments whose hot paths the engine
// optimises: Exp-1 P1 (mutually exclusive sets), Exp-3 P5 with the
// Section 4.5 filter, the running-example throughput query, the
// keyed (per-patient) evaluation of P1, and the durable-ingest
// paths (WAL append, backfill replay).
func artifactCases(ds []Dataset) ([]artifactCase, func(), error) {
	d1 := ds[0]

	p1, err := Exclusive(4)
	if err != nil {
		return nil, nil, err
	}
	a1, err := automaton.Compile(p1, d1.Rel.Schema())
	if err != nil {
		return nil, nil, err
	}
	a5, err := automaton.Compile(P5(), d1.Rel.Schema())
	if err != nil {
		return nil, nil, err
	}
	aq1, err := automaton.Compile(paperdata.QueryQ1(), d1.Rel.Schema())
	if err != nil {
		return nil, nil, err
	}

	runOn := func(a *automaton.Automaton, d Dataset, opts ...engine.Option) func() (int64, int, error) {
		r := engine.New(a, opts...)
		return func() (int64, int, error) {
			ms, m, err := engine.RunOn(r, d.Rel)
			return m.MaxSimultaneousInstances, len(ms), err
		}
	}
	// runBlocks is runOn through the columnar hot path: the relation is
	// fed as server-sized blocks via StepBlock instead of event by
	// event. All throughput entries over the same query must agree on
	// their match-count fingerprints.
	runBlocks := func(a *automaton.Automaton, d Dataset, opts ...engine.Option) func() (int64, int, error) {
		r := engine.New(a, opts...)
		return func() (int64, int, error) {
			r.Reset()
			evs := d.Rel.Events()
			matches := 0
			for lo := 0; lo < len(evs); lo += ingestBlockRows {
				hi := lo + ingestBlockRows
				if hi > len(evs) {
					hi = len(evs)
				}
				ms, err := r.StepBlock(event.Block{Events: evs[lo:hi]})
				if err != nil {
					return 0, 0, err
				}
				matches += len(ms)
			}
			matches += len(r.Flush())
			return r.Metrics().MaxSimultaneousInstances, matches, nil
		}
	}

	// AggThroughput is ThroughputQ1 evaluated aggregate-only: the same
	// Kleene-plus query under the same filter, but every accepted
	// instance is folded from its match buffer, in time linear in its
	// bindings, into a per-patient (count, sum(p.V)) group instead of
	// being enumerated — no buildMatch, no match materialization.
	// The fold count is reported as the Matches fingerprint and must
	// equal ThroughputQ1's match count; the ns/op and bytes/op gap
	// between the two entries is the measured cost of enumeration.
	aggPlan, err := engine.CompileAggregate(aq1, &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Var: "p", Attr: "V"},
		},
		Partition: "ID",
	})
	if err != nil {
		return nil, nil, err
	}
	aggRunner := engine.New(aq1, engine.WithFilter(true),
		engine.WithAggregation(engine.NewAggregator(aggPlan)), engine.WithAggregateOnly(true))

	cases := []artifactCase{
		{"Exp1_SES_P1/4/" + d1.Name, runOn(a1, d1, engine.WithFilter(true))},
		{"ThroughputQ1/" + d1.Name, runOn(aq1, d1, engine.WithFilter(true))},
		{"AggThroughput/q1/" + d1.Name, func() (int64, int, error) {
			_, m, err := engine.RunOn(aggRunner, d1.Rel)
			return m.MaxSimultaneousInstances, int(m.Matches), err
		}},
		{"CompiledThroughput/q1/" + d1.Name, runBlocks(aq1, d1, engine.WithFilter(true))},
		{"Exp3_P5_Filter/" + d1.Name, runOn(a5, d1, engine.WithFilter(true))},
		{"Exp3_P5_NoFilter/" + d1.Name, runOn(a5, d1)},
	}
	for _, d := range ds[1:] {
		d := d
		cases = append(cases, artifactCase{"Exp3_P5_Filter/" + d.Name, runOn(a5, d, engine.WithFilter(true))})
	}
	cases = append(cases, artifactCase{"Keyed_P1/4/" + d1.Name,
		runOn(a1, d1, engine.WithFilter(true), engine.WithPartitionKey("ID"))})
	// The serving layer: one shared ingest pass routed to three
	// registered queries, against the same three queries evaluated as
	// independent standalone runs (maxΩ is not defined across queries,
	// so it is reported as 0; the match count is the fingerprint). The
	// 10q/100q entries scale the registry with sparse-overlap queries
	// that match nothing — the routing index must keep per-event cost
	// near-independent of registry size. The shared automaton cache
	// amortizes compilation across iterations, as a long-lived server
	// would across its lifetime.
	qcache := server.NewAutomatonCache(0)
	cases = append(cases,
		artifactCase{"ServerThroughput/shared/3q/" + d1.Name, func() (int64, int, error) {
			n, err := RunServerSharedN(d1, len(ServerQueryTexts), qcache)
			return 0, n, err
		}},
		artifactCase{"ServerThroughput/independent/3q/" + d1.Name, func() (int64, int, error) {
			n, err := RunServerIndependent(d1)
			return 0, n, err
		}},
		artifactCase{"ServerThroughput/shared/10q/" + d1.Name, func() (int64, int, error) {
			n, err := RunServerSharedN(d1, 10, qcache)
			return 0, n, err
		}},
		artifactCase{"ServerThroughput/shared/100q/" + d1.Name, func() (int64, int, error) {
			n, err := RunServerSharedN(d1, 100, qcache)
			return 0, n, err
		}},
	)
	// The columnar NDJSON decoder alone: d1's ingest body pre-rendered
	// outside the timed region, then decoded per iteration through the
	// span-recording scan + column-at-a-time parse that the HTTP
	// handler and WAL backfill use. The decoded event count is the
	// fingerprint.
	lines, err := ingestNDJSON(d1)
	if err != nil {
		return nil, nil, err
	}
	dec := engine.NewBlockDecoder(d1.Rel.Schema())
	cases = append(cases, artifactCase{"BlockDecode/" + d1.Name, func() (int64, int, error) {
		dec.Reset()
		for i, ln := range lines {
			if !dec.Add(i+1, ln) {
				break
			}
		}
		evs, err := dec.Finish()
		if err != nil {
			return 0, 0, err
		}
		return 0, len(evs), nil
	}})
	// The durable ingest paths: appending the stream to the WAL under
	// the two deterministic fsync policies ("always" is measured by
	// BenchmarkWALAppend but kept out of the gated baseline — its cost
	// is the device's, not the code's), and bootstrapping a query from
	// retained history.
	scratch, err := os.MkdirTemp("", "sesbench-wal-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(scratch) }
	backfillDir := filepath.Join(scratch, "backfill")
	if err := FillWAL(backfillDir, d1); err != nil {
		cleanup()
		return nil, nil, err
	}
	cases = append(cases,
		artifactCase{"WALAppend/fsync=never/" + d1.Name, func() (int64, int, error) {
			n, err := RunWALAppend(filepath.Join(scratch, "never"), d1, wal.FsyncNever)
			return 0, n, err
		}},
		artifactCase{"WALAppend/fsync=interval/" + d1.Name, func() (int64, int, error) {
			n, err := RunWALAppend(filepath.Join(scratch, "interval"), d1, wal.FsyncInterval)
			return 0, n, err
		}},
		artifactCase{"BackfillReplay/q1/" + d1.Name, func() (int64, int, error) {
			n, err := RunBackfillReplay(backfillDir)
			return 0, n, err
		}},
	)
	// Warm-standby replication: bootstrapping a follower from an empty
	// WAL against a prefilled leader — manifest sync, segment shipping,
	// CRC re-verification, replicated appends and replayed evaluation.
	// The leader is static and built outside the timed region.
	rb, err := NewReplicaBench(filepath.Join(scratch, "replica"), d1)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	cleanup = func() {
		rb.Close()
		os.RemoveAll(scratch)
	}
	cases = append(cases,
		artifactCase{"ReplicaShipApply/q1/" + d1.Name, func() (int64, int, error) {
			n, err := rb.Run()
			return 0, n, err
		}},
	)
	// The partition-routed cluster: each iteration stands up two
	// ownership-split nodes behind a router, sequences and routes the
	// whole stream, drains and reads the deterministic merged match
	// stream back. The merged count is the fingerprint — it must equal
	// the single-node Q1 count, which is what pins the split/merge as
	// evaluation-neutral in the baseline.
	routerB, err := NewRouterBench(d1)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	cases = append(cases,
		artifactCase{"RouterThroughput/2p/q1/" + d1.Name, func() (int64, int, error) {
			n, err := routerB.Run()
			return 0, n, err
		}},
	)
	return cases, cleanup, nil
}

// artifactRounds is how many interleaved measurement rounds each
// artifact case gets; the fastest round per case is kept. Transient
// machine noise (CPU frequency shifts, container neighbors, GC debt
// from earlier cases) only ever inflates a timing, so the minimum is
// the least-contaminated estimate of the code's cost, and because the
// rounds interleave across the whole suite a slow patch of wall-clock
// hurts one round of every case instead of one case's only sample —
// which is what keeps cross-entry ratios (shared vs independent,
// 100q vs 10q) stable enough to pin in the baseline gate.
const artifactRounds = 3

// measureCase runs one artifact case under testing.Benchmark (default
// 1s of iterations after calibration) and returns its entry.
func measureCase(c artifactCase) (ArtifactEntry, error) {
	var benchErr error
	var maxOmega int64
	var matches int
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mo, n, err := c.run()
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			maxOmega, matches = mo, n
		}
	})
	if benchErr != nil {
		return ArtifactEntry{}, fmt.Errorf("bench %s: %w", c.name, benchErr)
	}
	if r.N == 0 {
		return ArtifactEntry{}, fmt.Errorf("bench %s: no iterations (benchmark failed)", c.name)
	}
	return ArtifactEntry{
		Name:        c.name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		MaxOmega:    maxOmega,
		Matches:     matches,
	}, nil
}

// BuildArtifact generates the datasets for cfg and measures the
// artifact suite, so no compiled test binary is needed to produce a
// baseline. Each case is measured artifactRounds times in interleaved
// rounds and the fastest round is kept (see artifactRounds); the
// correctness fingerprints (matches, maxΩ) must agree across rounds.
func BuildArtifact(cfg chemo.Config, profile string, k int) (*Artifact, error) {
	ds, err := MakeDatasets(cfg, k)
	if err != nil {
		return nil, err
	}
	cases, cleanup, err := artifactCases(ds)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	art := &Artifact{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Profile:    profile,
		Seed:       cfg.Seed,
		Regenerate: fmt.Sprintf("GOMAXPROCS=%d go run ./cmd/sesbench -json BENCH_baseline.json -profile %s -datasets %d",
			runtime.GOMAXPROCS(0), profile, k),
	}
	best := make([]ArtifactEntry, len(cases))
	for round := 0; round < artifactRounds; round++ {
		cal, err := measureCase(calibration)
		if err != nil {
			return nil, err
		}
		if round == 0 || cal.NsPerOp < art.CalibrationNs {
			art.CalibrationNs = cal.NsPerOp
		}
		for i, c := range cases {
			e, err := measureCase(c)
			if err != nil {
				return nil, err
			}
			if round == 0 {
				best[i] = e
				continue
			}
			if e.Matches != best[i].Matches || e.MaxOmega != best[i].MaxOmega {
				return nil, fmt.Errorf("bench %s: nondeterministic fingerprint across rounds (matches %d vs %d, maxΩ %d vs %d)",
					c.name, best[i].Matches, e.Matches, best[i].MaxOmega, e.MaxOmega)
			}
			if e.NsPerOp < best[i].NsPerOp {
				best[i] = e
			}
		}
	}
	art.Entries = best
	return art, nil
}

// MarshalIndent renders the artifact as stable, diff-friendly JSON.
func (a *Artifact) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
