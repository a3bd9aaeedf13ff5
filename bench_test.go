// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5) as testing.B benchmarks, one family per
// artifact:
//
//	BenchmarkExp1Fig11_*   → Figure 11 (SES vs brute force instances)
//	BenchmarkExp1Table1    → Table 1   (instance ratio vs (|V1|-1)!)
//	BenchmarkExp2Fig12_*   → Figure 12 (instances vs window size W)
//	BenchmarkExp3Fig13_*   → Figure 13 (runtime with/without filter)
//	BenchmarkAblation*     → the two ablations added by this repo
//
// The benchmarks run on the "small" synthetic profile (W ≈ 650) so the
// whole suite stays laptop-sized; cmd/sesbench regenerates the full
// tables, including the paper-scale profile (W ≈ 1322), in one run.
// Custom metrics report the measured parameter of each experiment:
// maxΩ (maximal simultaneous automaton instances) and iterations over
// Ω. Wall-clock per op is the measured parameter of Experiment 3.
package ses_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/automaton"
	"repro/internal/bench"
	"repro/internal/bruteforce"
	"repro/internal/chemo"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// datasets are generated once per process; D1..D3 of the small
// profile keep even the heaviest benchmark iterations in the low
// seconds.
var (
	dsOnce sync.Once
	ds     []bench.Dataset
)

func datasets(b *testing.B, k int) []bench.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		var err error
		ds, err = bench.MakeDatasets(chemo.Small(), 3)
		if err != nil {
			b.Fatal(err)
		}
	})
	if k > len(ds) {
		b.Fatalf("only %d datasets prepared", len(ds))
	}
	return ds[:k]
}

func compileFor(b *testing.B, p *pattern.Pattern, rel *event.Relation) *automaton.Automaton {
	b.Helper()
	a, err := automaton.Compile(p, rel.Schema())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// runSESBench measures one SES run per iteration and reports maxΩ.
func runSESBench(b *testing.B, p *pattern.Pattern, rel *event.Relation, opts ...engine.Option) {
	b.Helper()
	a := compileFor(b, p, rel)
	var maxOmega int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := engine.Run(a, rel, opts...)
		if err != nil {
			b.Fatal(err)
		}
		maxOmega = m.MaxSimultaneousInstances
	}
	b.ReportMetric(float64(maxOmega), "maxΩ")
}

// runBFBench measures one brute-force run per iteration.
func runBFBench(b *testing.B, p *pattern.Pattern, rel *event.Relation) {
	b.Helper()
	bf, err := bruteforce.Compile(p, rel.Schema())
	if err != nil {
		b.Fatal(err)
	}
	var maxOmega int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := bf.Run(rel, engine.WithFilter(true))
		if err != nil {
			b.Fatal(err)
		}
		maxOmega = m.MaxSimultaneousInstances
	}
	b.ReportMetric(float64(maxOmega), "maxΩ")
	b.ReportMetric(float64(len(bf.Automata)), "automata")
}

// ---------------------------------------------------------------------------
// Experiment 1 — Figure 11 and Table 1.

func BenchmarkExp1Fig11_SES_P1(b *testing.B) {
	d := datasets(b, 1)[0]
	for _, size := range []int{2, 3, 4, 5, 6} {
		p, err := bench.Exclusive(size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			runSESBench(b, p, d.Rel, engine.WithFilter(true))
		})
	}
}

func BenchmarkExp1Fig11_BF_P1(b *testing.B) {
	d := datasets(b, 1)[0]
	for _, size := range []int{2, 3, 4, 5, 6} {
		p, err := bench.Exclusive(size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			runBFBench(b, p, d.Rel)
		})
	}
}

func BenchmarkExp1Fig11_SES_P2(b *testing.B) {
	d := datasets(b, 1)[0]
	for _, size := range []int{2, 3, 4, 5, 6} {
		p, err := bench.Overlapping(size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			runSESBench(b, p, d.Rel, engine.WithFilter(true))
		})
	}
}

func BenchmarkExp1Fig11_BF_P2(b *testing.B) {
	d := datasets(b, 1)[0]
	for _, size := range []int{2, 3, 4, 5, 6} {
		p, err := bench.Overlapping(size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(size), func(b *testing.B) {
			runBFBench(b, p, d.Rel)
		})
	}
}

// BenchmarkExp1Table1 regenerates Table 1's ratio column in one go and
// reports it as metrics (ratio vs the (|V1|-1)! reference).
func BenchmarkExp1Table1(b *testing.B) {
	d := datasets(b, 1)[0]
	var rows []bench.Exp1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunExp1(d, []int{2, 3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.RatioP1, "ratio_v"+sizeName(r.Size))
	}
}

func sizeName(size int) string { return string(rune('0' + size)) }

// ---------------------------------------------------------------------------
// Experiment 2 — Figure 12.

func BenchmarkExp2Fig12_P3(b *testing.B) {
	for _, d := range datasets(b, 3) {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportMetric(float64(d.W), "W")
			runSESBench(b, bench.P3(), d.Rel, engine.WithFilter(true))
		})
	}
}

func BenchmarkExp2Fig12_P4(b *testing.B) {
	for _, d := range datasets(b, 3) {
		b.Run(d.Name, func(b *testing.B) {
			b.ReportMetric(float64(d.W), "W")
			runSESBench(b, bench.P4(), d.Rel, engine.WithFilter(true))
		})
	}
}

// ---------------------------------------------------------------------------
// Experiment 3 — Figure 13. Wall-clock per op IS the figure's y-axis.

func benchExp3(b *testing.B, p *pattern.Pattern, filter bool) {
	for _, d := range datasets(b, 3) {
		b.Run(d.Name, func(b *testing.B) {
			a := compileFor(b, p, d.Rel)
			var iters int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := engine.Run(a, d.Rel, engine.WithFilter(filter))
				if err != nil {
					b.Fatal(err)
				}
				iters = m.InstanceIterations
			}
			b.ReportMetric(float64(iters), "Ωiter")
		})
	}
}

func BenchmarkExp3Fig13_P5_NoFilter(b *testing.B) { benchExp3(b, bench.P5(), false) }
func BenchmarkExp3Fig13_P5_Filter(b *testing.B)   { benchExp3(b, bench.P5(), true) }
func BenchmarkExp3Fig13_P6_NoFilter(b *testing.B) { benchExp3(b, bench.P6(), false) }
func BenchmarkExp3Fig13_P6_Filter(b *testing.B)   { benchExp3(b, bench.P6(), true) }

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblationFilterIterations reports how many iterations over Ω
// the Section 4.5 filter removes on P6/D1 (ablation A1).
func BenchmarkAblationFilterIterations(b *testing.B) {
	d := datasets(b, 1)[0]
	var rows []bench.FilterRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunAblationFilter([]bench.Dataset{d})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows[0].IterNoFilter), "iter_nofilter")
	b.ReportMetric(float64(rows[0].IterFilter), "iter_filter")
}

// BenchmarkAblationStrategy compares the paper's skip-till-next-match
// with the skip-till-any-match extension on P4 (ablation A2).
func BenchmarkAblationStrategy(b *testing.B) {
	d := datasets(b, 1)[0]
	a := compileFor(b, bench.P4(), d.Rel)
	for _, s := range []engine.Strategy{engine.SkipTillNext, engine.SkipTillAny} {
		b.Run(s.String(), func(b *testing.B) {
			var maxOmega int64
			for i := 0; i < b.N; i++ {
				_, m, err := engine.Run(a, d.Rel,
					engine.WithFilter(true), engine.WithStrategy(s),
					engine.WithMaxInstances(5_000_000))
				if err != nil {
					b.Fatal(err)
				}
				maxOmega = m.MaxSimultaneousInstances
			}
			b.ReportMetric(float64(maxOmega), "maxΩ")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the building blocks.

// BenchmarkCompileQ1 measures pattern-to-automaton compilation of the
// running example.
func BenchmarkCompileQ1(b *testing.B) {
	p := paperdata.QueryQ1()
	s := paperdata.Schema()
	for i := 0; i < b.N; i++ {
		if _, err := automaton.Compile(p, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseQ1 measures query-text parsing.
func BenchmarkParseQ1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ses.ParseQuery(paperdata.QueryQ1Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputQ1 measures single-core event throughput of the
// running-example query on the small D1 with filtering, reported as
// events per operation via b.SetBytes-like accounting (ns/event is
// ns/op divided by the events metric).
func BenchmarkThroughputQ1(b *testing.B) {
	d := datasets(b, 1)[0]
	a := compileFor(b, paperdata.QueryQ1(), d.Rel)
	b.ReportMetric(float64(d.Rel.Len()), "events/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Run(a, d.Rel, engine.WithFilter(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Partitioned execution.

// BenchmarkMatchPartitioned measures MatchPartitioned on the
// running-example query over the small D1, partitioned by patient: one
// keyed pass over the relation plus the sort by start time.
func BenchmarkMatchPartitioned(b *testing.B) {
	d := datasets(b, 1)[0]
	q, err := ses.Compile(q1Text, d.Rel.Schema())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.MatchPartitioned(d.Rel, "ID", ses.WithFilter(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyedRunner measures a keyed Runner on the same workload:
// one pass over the interleaved stream, each event stepped on its
// patient's sub-runner, with MatchPartitioned's matches as the result.
func BenchmarkKeyedRunner(b *testing.B) {
	d := datasets(b, 1)[0]
	a := compileFor(b, paperdata.QueryQ1(), d.Rel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Run(a, d.Rel, engine.WithFilter(true), engine.WithPartitionKey("ID")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupervise measures Query.Supervise on the running-example
// query over the small D1, fed from a goroutine one event at a time:
// with the default in-memory checkpoints, with recovery off, and
// persisting a checkpoint file every 256 events and at the end.
func BenchmarkSupervise(b *testing.B) {
	d := datasets(b, 1)[0]
	q, err := ses.Compile(q1Text, d.Rel.Schema())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  ses.SuperviseConfig
	}{
		{"recoverable", ses.SuperviseConfig{}},
		{"unrecoverable", ses.SuperviseConfig{MaxRestarts: -1}},
		{"file", ses.SuperviseConfig{CheckpointPath: filepath.Join(b.TempDir(), "q1.ckpt")}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, sup, err := q.Supervise(context.Background(), feed(d.Rel), c.cfg, ses.WithFilter(true))
				if err != nil {
					b.Fatal(err)
				}
				for range out {
				}
				if err := sup.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Rel.Len()), "ns/event")
		})
	}
}
