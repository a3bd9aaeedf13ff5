package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/event"
	"repro/internal/pattern"
)

// foldPlan compiles the aggregation plan the fold-stats tests share:
// every function over both attribute types, partitioned, with a HAVING
// filter that only some groups pass.
func foldPlan(t *testing.T, having []pattern.HavingCond) *AggPlan {
	t.Helper()
	p := pattern.New().
		Set(pattern.Var("x")).Set(pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(5).MustBuild()
	a := compile(t, p, simpleSchema())
	spec := &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Attr: "V"},
			{Func: pattern.AggAvg, Attr: "V"},
			{Func: pattern.AggMin, Attr: "V"},
			{Func: pattern.AggMax, Attr: "ID"},
			{Func: pattern.AggAvg, Attr: "ID"},
		},
		Partition: "ID",
		Having:    having,
	}
	return mustAggPlan(t, a, spec)
}

// groupValues indexes a parsed stats document's groups by rendered key.
func groupValues(t *testing.T, doc statsDoc) map[string][]any {
	t.Helper()
	out := make(map[string][]any, len(doc.Groups))
	for _, g := range doc.Groups {
		k := fmt.Sprint(g.Key)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate group key %s in document", k)
		}
		out[k] = g.Values
	}
	return out
}

// TestMergeFoldStatsProperty is the distributed-aggregation
// equivalence property: folding match partials into one aggregator
// must render the same groups and values as splitting the partials
// across aggregators and merging their fold documents. The
// contribution values are exact in binary floating point (multiples of
// 0.25, plus NaN and ±Inf), so float sums are order-independent and
// the comparison can be bit-exact.
func TestMergeFoldStatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	having := []pattern.HavingCond{
		{Item: pattern.AggItem{Func: pattern.AggCount}, Op: pattern.Ge, Const: event.Int(2)},
	}
	floats := []float64{1.5, -2.25, 3, 0.5, 100.75, math.NaN(), math.Inf(1), math.Inf(-1)}
	for iter := 0; iter < 20; iter++ {
		plan := foldPlan(t, having)
		full := NewAggregator(plan)
		parts := []*Aggregator{NewAggregator(plan), NewAggregator(plan), NewAggregator(plan)}
		matches := 5 + rng.Intn(40)
		for i := 0; i < matches; i++ {
			key := event.Int(int64(1 + rng.Intn(5)))
			vals := make([]aggVal, len(plan.slots))
			for s := range plan.slots {
				if rng.Intn(4) == 0 {
					continue // this match contributed nothing to the slot
				}
				cnt := int64(1 + rng.Intn(3))
				if plan.slots[s].isFloat {
					vals[s] = aggVal{n: cnt, f: floats[rng.Intn(len(floats))]}
				} else {
					vals[s] = aggVal{n: cnt, i: int64(rng.Intn(10) - 3)}
				}
			}
			full.fold(key, vals)
			// parts[2] stays empty some iterations, covering the merge of
			// a partition that saw no matches.
			parts[rng.Intn(2+iter%2)].fold(key, vals)
		}
		docs := make([][]byte, len(parts))
		var verSum uint64
		for i, p := range parts {
			docs[i] = p.FoldStats()
			verSum += p.Folds()
		}
		mergedRaw, err := MergeFoldStats(plan, docs)
		if err != nil {
			t.Fatalf("iter %d: merge: %v", iter, err)
		}
		merged := parseStats(t, mergedRaw)
		wantRaw, _, _ := full.Stats(0)
		want := parseStats(t, wantRaw)
		if merged.Ver != verSum || merged.Ver != want.Ver {
			t.Fatalf("iter %d: merged ver = %d, partial sum %d, single-node %d", iter, merged.Ver, verSum, want.Ver)
		}
		if !reflect.DeepEqual(merged.Aggregates, want.Aggregates) ||
			merged.Partition != want.Partition || merged.Having != want.Having {
			t.Fatalf("iter %d: merged header diverges:\n got %s\nwant %s", iter, mergedRaw, wantRaw)
		}
		got := groupValues(t, merged)
		ref := groupValues(t, want)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("iter %d: merged groups diverge:\n got %s\nwant %s", iter, mergedRaw, wantRaw)
		}
	}
}

// TestMergeFoldStatsCrossPartitionHaving pins the reason fold
// documents carry HAVING-failing groups: a group with one match on
// each of two partitions fails count >= 2 locally but must pass after
// the merge.
func TestMergeFoldStatsCrossPartitionHaving(t *testing.T) {
	having := []pattern.HavingCond{
		{Item: pattern.AggItem{Func: pattern.AggCount}, Op: pattern.Ge, Const: event.Int(2)},
	}
	plan := foldPlan(t, having)
	a1, a2 := NewAggregator(plan), NewAggregator(plan)
	for _, ag := range []*Aggregator{a1, a2} {
		vals := make([]aggVal, len(plan.slots))
		vals[0] = aggVal{n: 1, f: 2.5} // sum(V)
		vals[1] = aggVal{n: 1, f: 2.5} // avg(V)
		ag.fold(event.Int(7), vals)
	}
	for i, ag := range []*Aggregator{a1, a2} {
		local, _, _ := ag.Stats(0)
		if doc := parseStats(t, local); len(doc.Groups) != 0 {
			t.Fatalf("partition %d renders %d groups locally, want 0 (HAVING count >= 2)", i, len(doc.Groups))
		}
	}
	mergedRaw, err := MergeFoldStats(plan, [][]byte{a1.FoldStats(), a2.FoldStats()})
	if err != nil {
		t.Fatal(err)
	}
	merged := parseStats(t, mergedRaw)
	if len(merged.Groups) != 1 {
		t.Fatalf("merged document has %d groups, want the cross-partition group:\n%s", len(merged.Groups), mergedRaw)
	}
	wantStatInt(t, merged.Groups[0].Key, 7, "key")
	wantStatInt(t, merged.Groups[0].Values[0], 2, "count")
	wantStatFloat(t, merged.Groups[0].Values[1], 5.0, "sum(V)")
	wantStatFloat(t, merged.Groups[0].Values[2], 2.5, "avg(V)")
}

// TestMergeFoldStatsErrors: merging nothing, junk, or a section that
// does not fit the plan fails loudly instead of rendering a wrong
// answer. (Whether the partitions run the same plan is the router's
// check: it compiles the plan from the query text they report.)
func TestMergeFoldStatsErrors(t *testing.T) {
	plan := foldPlan(t, nil)
	if _, err := MergeFoldStats(plan, nil); err == nil {
		t.Error("merging zero documents succeeded")
	}
	if _, err := MergeFoldStats(plan, [][]byte{[]byte("{")}); err == nil {
		t.Error("merging a truncated document succeeded")
	}
	short := []byte(`{"ver":1,"groups":[{"key":"7","count":1,"ver":1,"vals":[{"n":1,"i":0,"f":"2.5"}]}]}`)
	if _, err := MergeFoldStats(plan, [][]byte{short}); err == nil {
		t.Errorf("merging a section with 1 slot for a %d-slot plan succeeded", len(plan.slots))
	}
}

// TestFoldStatsIsSnapshotSection pins the single encoding of aggregate
// state: the fold document is byte for byte the snapshot's "agg"
// section, and merging that one section renders Stats(0) less the
// per-group fold versions.
func TestFoldStatsIsSnapshotSection(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	plan := mustAggPlan(t, a, &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Attr: "V"},
			{Func: pattern.AggAvg, Attr: "V"},
			{Func: pattern.AggMax, Attr: "ID"},
		},
		Partition: "ID",
		Having:    []pattern.HavingCond{{Item: pattern.AggItem{Func: pattern.AggCount}, Op: pattern.Ge, Const: event.Int(2)}},
	})
	ag := NewAggregator(plan)
	r := New(a, WithAggregation(ag), WithAggregateOnly(true))
	rel := event.NewRelation(simpleSchema())
	for i := 0; i < 60; i++ {
		rel.MustAppend(event.Time(i), event.Int(int64(i%3)), event.String([]string{"A", "B"}[i/2%2]), event.Float(float64(i)/4))
	}
	if _, err := stepAll(t, r, rel); err != nil {
		t.Fatal(err)
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Agg json.RawMessage `json:"agg"`
	}
	if err := json.Unmarshal(snap, &file); err != nil {
		t.Fatal(err)
	}
	section := ag.FoldStats()
	if !bytes.Equal(section, file.Agg) {
		t.Fatalf("fold document differs from the snapshot section:\nfold %s\nsnap %s", section, file.Agg)
	}
	merged, err := MergeFoldStats(plan, [][]byte{section})
	if err != nil {
		t.Fatal(err)
	}
	stats, _, _ := ag.Stats(0)
	if n := len(parseStats(t, stats).Groups); n < 2 {
		t.Fatalf("degenerate stream: %d groups pass HAVING", n)
	}
	want := regexp.MustCompile(`,"ver":[0-9]+,"values"`).ReplaceAll(stats, []byte(`,"values"`))
	if !bytes.Equal(merged, want) {
		t.Fatalf("merged single section differs from Stats(0) less group versions:\n got %s\nwant %s", merged, want)
	}
}
