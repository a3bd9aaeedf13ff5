package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chemo"
	"repro/internal/engine"
	"repro/internal/paperdata"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/wal"
)

func tinyDatasets(t *testing.T, k int) []Dataset {
	t.Helper()
	ds, err := MakeDatasets(chemo.Tiny(), k)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPatternBuilders(t *testing.T) {
	for size := 1; size <= 6; size++ {
		p, err := Exclusive(size)
		if err != nil {
			t.Fatalf("Exclusive(%d): %v", size, err)
		}
		a := pattern.Analyze(p)
		if a.Sets[0].Case != pattern.Case1 {
			t.Errorf("Exclusive(%d) V1 is %v, want case 1", size, a.Sets[0].Case)
		}
		o, err := Overlapping(size)
		if err != nil {
			t.Fatalf("Overlapping(%d): %v", size, err)
		}
		oa := pattern.Analyze(o)
		if size >= 2 && oa.Sets[0].Case != pattern.Case2 {
			t.Errorf("Overlapping(%d) V1 is %v, want case 2", size, oa.Sets[0].Case)
		}
	}
	if _, err := Exclusive(0); err == nil {
		t.Errorf("Exclusive(0) should fail")
	}
	if _, err := Overlapping(7); err == nil {
		t.Errorf("Overlapping(7) should fail")
	}

	if a := pattern.Analyze(P3()); a.Sets[0].Case != pattern.Case3 {
		t.Errorf("P3 is %v, want case 3", a.Sets[0].Case)
	}
	if a := pattern.Analyze(P4()); a.Sets[0].Case != pattern.Case2 {
		t.Errorf("P4 is %v, want case 2", a.Sets[0].Case)
	}
	if a := pattern.Analyze(P5()); a.Sets[0].Case != pattern.Case1 {
		t.Errorf("P5 is %v, want case 1", a.Sets[0].Case)
	}
	if a := pattern.Analyze(P6()); a.Sets[0].Case != pattern.Case3 {
		t.Errorf("P6 is %v, want case 3", a.Sets[0].Case)
	}
}

func TestMakeDatasets(t *testing.T) {
	ds := tinyDatasets(t, 3)
	if len(ds) != 3 || ds[0].Name != "D1" || ds[2].Name != "D3" {
		t.Fatalf("datasets = %+v", ds)
	}
	for i, d := range ds {
		if d.W != (i+1)*ds[0].W {
			t.Errorf("%s W = %d, want %d", d.Name, d.W, (i+1)*ds[0].W)
		}
	}
}

func TestRunExp1Shape(t *testing.T) {
	ds := tinyDatasets(t, 1)
	rows, err := RunExp1(ds[0], []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Hypothesis 1 of the paper: SES never uses more simultaneous
		// instances than brute force.
		if r.SESMaxP1 > r.BFMaxP1 {
			t.Errorf("|V1|=%d: SES P1 %d > BF %d", r.Size, r.SESMaxP1, r.BFMaxP1)
		}
		if r.SESMaxP2 > r.BFMaxP2 {
			t.Errorf("|V1|=%d: SES P2 %d > BF %d", r.Size, r.SESMaxP2, r.BFMaxP2)
		}
		if r.SESMaxP1 <= 0 || r.BFMaxP1 <= 0 {
			t.Errorf("|V1|=%d: zero instance counts: %+v", r.Size, r)
		}
	}
	// The BF/SES gap must widen with the set size (Figure 11's trend).
	if rows[1].RatioP1 < rows[0].RatioP1 {
		t.Errorf("ratio not increasing: %v then %v", rows[0].RatioP1, rows[1].RatioP1)
	}
	if rows[0].BFAutomata != 2 || rows[1].BFAutomata != 6 {
		t.Errorf("BF automata counts = %d, %d", rows[0].BFAutomata, rows[1].BFAutomata)
	}
	txt := Exp1Table(ds[0], rows) + Table1(rows)
	for _, frag := range []string{"Figure 11", "Table 1", "(|V1|-1)!"} {
		if !strings.Contains(txt, frag) {
			t.Errorf("tables missing %q", frag)
		}
	}
}

func TestRunExp2Shape(t *testing.T) {
	ds := tinyDatasets(t, 3)
	rows, err := RunExp2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].P3Max < rows[i-1].P3Max {
			t.Errorf("P3 not monotone in W: %+v", rows)
		}
		if rows[i].P4Max < rows[i-1].P4Max {
			t.Errorf("P4 not monotone in W: %+v", rows)
		}
	}
	// Theorem 3 vs Theorem 2: the group-variable pattern grows at
	// least as fast as the singleton pattern.
	g3 := float64(rows[2].P3Max) / float64(rows[0].P3Max)
	g4 := float64(rows[2].P4Max) / float64(rows[0].P4Max)
	if g3 < g4 {
		t.Errorf("P3 growth %.2f < P4 growth %.2f", g3, g4)
	}
	if !strings.Contains(Exp2Table(rows), "Figure 12") {
		t.Errorf("table header missing")
	}
}

func TestRunExp3Shape(t *testing.T) {
	ds := tinyDatasets(t, 2)
	rows, err := RunExp3(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The filter must reduce the machine-independent iteration
		// count (wall-clock on tiny data is too noisy to assert).
		if r.P5IterFilter >= r.P5IterNoFilter {
			t.Errorf("%s: P5 iterations with filter %d >= without %d",
				r.Dataset, r.P5IterFilter, r.P5IterNoFilter)
		}
		if r.P6IterFilter >= r.P6IterNoFilter {
			t.Errorf("%s: P6 iterations with filter %d >= without %d",
				r.Dataset, r.P6IterFilter, r.P6IterNoFilter)
		}
	}
	if !strings.Contains(Exp3Table(rows), "Figure 13") {
		t.Errorf("table header missing")
	}
}

func TestAblations(t *testing.T) {
	ds := tinyDatasets(t, 1)
	frows, err := RunAblationFilter(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(frows) != 1 || frows[0].Filtered == 0 {
		t.Errorf("filter ablation rows = %+v", frows)
	}
	if frows[0].MatchesNoFilter != frows[0].MatchesFilter {
		t.Errorf("filter changed match count: %+v", frows[0])
	}
	if !strings.Contains(AblationFilterTable(frows), "Ablation A1") {
		t.Errorf("filter table header missing")
	}

	srows, capped, err := RunAblationStrategy(ds, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 1 {
		t.Fatalf("strategy rows = %+v", srows)
	}
	if !capped[0] && srows[0].AnyMax < srows[0].NextMax {
		t.Errorf("skip-till-any should never use fewer instances: %+v", srows[0])
	}
	if !strings.Contains(AblationStrategyTable(srows, capped, 200000), "Ablation A2") {
		t.Errorf("strategy table header missing")
	}
}

func TestServerSharedMatchesIndependent(t *testing.T) {
	d := tinyDatasets(t, 1)[0]
	shared, err := RunServerShared(d)
	if err != nil {
		t.Fatal(err)
	}
	independent, err := RunServerIndependent(d)
	if err != nil {
		t.Fatal(err)
	}
	if shared != independent {
		t.Errorf("shared ingest found %d matches, independent runs %d", shared, independent)
	}
	if shared == 0 {
		t.Errorf("no matches found; the benchmark would measure nothing")
	}
}

func BenchmarkServerThroughput(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 1)
	if err != nil {
		b.Fatal(err)
	}
	d := ds[0]
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunServerShared(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunServerIndependent(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	cache := server.NewAutomatonCache(0)
	for _, n := range []int{10, 100} {
		n := n
		b.Run(fmt.Sprintf("shared%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunServerSharedN(d, n, cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAggThroughputFingerprint pins the correctness fingerprint the
// AggThroughput baseline entry relies on: the aggregate-only
// evaluation of Q1 folds exactly the matches the enumerating
// evaluation returns — while materializing none of them.
func TestAggThroughputFingerprint(t *testing.T) {
	d := tinyDatasets(t, 1)[0]
	a, err := compileText(paperdata.QueryQ1Text, d.Rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	enum, _, err := engine.RunOn(engine.New(a, engine.WithFilter(true)), d.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(enum) == 0 {
		t.Fatal("no matches found; the benchmark would measure nothing")
	}
	plan, err := engine.CompileAggregate(a, &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Var: "p", Attr: "V"},
		},
		Partition: "ID",
	})
	if err != nil {
		t.Fatal(err)
	}
	ag := engine.NewAggregator(plan)
	folded, m, err := engine.RunOn(engine.New(a, engine.WithFilter(true),
		engine.WithAggregation(ag), engine.WithAggregateOnly(true)), d.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != 0 {
		t.Errorf("aggregate-only run materialized %d matches", len(folded))
	}
	if int(m.Matches) != len(enum) || ag.Folds() != uint64(len(enum)) {
		t.Errorf("folded %d matches (metrics %d), enumeration found %d", ag.Folds(), m.Matches, len(enum))
	}
}

// BenchmarkAggThroughput puts the enumeration-free fold path side by
// side with the enumerating baseline on the same Kleene-plus query.
// The duplicated datasets (D2, D3 — Theorem 3's polynomial regime)
// are where the two are compared as match sets grow: both walk each
// accepted match's buffer once, but the fold materializes nothing.
func BenchmarkAggThroughput(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range ds {
		a, err := compileText(paperdata.QueryQ1Text, d.Rel.Schema())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := engine.CompileAggregate(a, &pattern.AggSpec{
			Items:     []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}},
			Partition: "ID",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("enumerate/"+d.Name, func(b *testing.B) {
			r := engine.New(a, engine.WithFilter(true))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.RunOn(r, d.Rel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("aggregate-only/"+d.Name, func(b *testing.B) {
			r := engine.New(a, engine.WithFilter(true),
				engine.WithAggregation(engine.NewAggregator(plan)), engine.WithAggregateOnly(true))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.RunOn(r, d.Rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFmtDur(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{
		{1_500_000_000, "1.50s"},
		{2_500_000, "2.5ms"},
		{900, "0µs"},
		{45_000, "45µs"},
	} {
		if got := fmtDur(durOf(c.ns)); got != c.want {
			t.Errorf("fmtDur(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// durOf converts nanoseconds for the fmtDur test.
func durOf(ns int64) (d time.Duration) { return time.Duration(ns) }

func TestFigures(t *testing.T) {
	ds := tinyDatasets(t, 2)
	rows1, err := RunExp1(ds[0], []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fig := Exp1Figure(rows1); !strings.Contains(fig, "Figure 11") || !strings.Contains(fig, "log scale") {
		t.Errorf("Exp1Figure:\n%s", fig)
	}
	rows2, err := RunExp2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if fig := Exp2Figure(rows2); !strings.Contains(fig, "Figure 12") || !strings.Contains(fig, "SES with P4") {
		t.Errorf("Exp2Figure:\n%s", fig)
	}
	rows3, err := RunExp3(ds[:1])
	if err != nil {
		t.Fatal(err)
	}
	if fig := Exp3Figure(rows3); !strings.Contains(fig, "Figure 13") || !strings.Contains(fig, "P6 w/o filter") {
		t.Errorf("Exp3Figure:\n%s", fig)
	}
}

// TestWALRunners checks the WAL benchmark runners produce the
// fingerprints the gated baseline relies on: append count == dataset
// size under every policy, and the backfill replay reproduces the
// standalone match count of the same query.
func TestWALRunners(t *testing.T) {
	d := tinyDatasets(t, 1)[0]
	dir := t.TempDir()
	for _, policy := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncInterval, wal.FsyncAlways} {
		n, err := RunWALAppend(filepath.Join(dir, policy.String()), d, policy)
		if err != nil {
			t.Fatalf("RunWALAppend(%v): %v", policy, err)
		}
		if n != d.Rel.Len() {
			t.Errorf("RunWALAppend(%v) = %d records, want %d", policy, n, d.Rel.Len())
		}
	}
	bfDir := filepath.Join(dir, "backfill")
	if err := FillWAL(bfDir, d); err != nil {
		t.Fatal(err)
	}
	got, err := RunBackfillReplay(bfDir)
	if err != nil {
		t.Fatal(err)
	}
	// Same query, same data, standalone.
	a, err := compileText(paperdata.QueryQ1Text, d.Rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := engine.RunOn(engine.New(a, engine.WithFilter(true)), d.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(ms) {
		t.Errorf("backfill replay found %d matches, standalone %d", got, len(ms))
	}
	if got == 0 {
		t.Errorf("no matches found; the benchmark would measure nothing")
	}
	// A second replay over the same directory is reproducible.
	again, err := RunBackfillReplay(bfDir)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Errorf("replay not reproducible: %d then %d matches", got, again)
	}
}

// TestReplicaRunner checks the replication benchmark's fingerprint:
// a follower bootstrapped over the wire reproduces the standalone
// match count of the same query, reproducibly.
func TestReplicaRunner(t *testing.T) {
	d := tinyDatasets(t, 1)[0]
	rb, err := NewReplicaBench(t.TempDir(), d)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	got, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, err := compileText(paperdata.QueryQ1Text, d.Rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := engine.RunOn(engine.New(a, engine.WithFilter(true)), d.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(ms) {
		t.Errorf("replicated follower found %d matches, standalone %d", got, len(ms))
	}
	if got == 0 {
		t.Errorf("no matches found; the benchmark would measure nothing")
	}
	again, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Errorf("replication not reproducible: %d then %d matches", got, again)
	}
}

// BenchmarkReplicaShipApply measures bootstrapping a fresh follower
// from a prefilled leader: manifest sync, segment streaming over
// loopback HTTP, CRC re-verification, replicated WAL appends and the
// replayed evaluation of Q1.
func BenchmarkReplicaShipApply(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := NewReplicaBench(b.TempDir(), ds[0])
	if err != nil {
		b.Fatal(err)
	}
	defer rb.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rb.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the durable append path per fsync
// policy. "always" pays one fdatasync per batch and is therefore
// device-bound; it is benchmarked here but excluded from the gated
// baseline.
func BenchmarkWALAppend(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 1)
	if err != nil {
		b.Fatal(err)
	}
	d := ds[0]
	for _, policy := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncInterval, wal.FsyncAlways} {
		policy := policy
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWALAppend(dir, d, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackfillReplay measures bootstrapping the paper's Q1 from
// retained WAL history: segment reads, record decoding, mailbox
// delivery and evaluation, with zero live ingest.
func BenchmarkBackfillReplay(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 1)
	if err != nil {
		b.Fatal(err)
	}
	d := ds[0]
	dir := b.TempDir()
	if err := FillWAL(dir, d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBackfillReplay(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterThroughput measures the partition-routed cluster end
// to end: two ownership-split nodes behind a router, global
// sequencing, keyspace fan-out, drain and the deterministic merged
// read-back of Q1's matches.
func BenchmarkRouterThroughput(b *testing.B) {
	ds, err := MakeDatasets(chemo.Tiny(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := NewRouterBench(ds[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rb.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
