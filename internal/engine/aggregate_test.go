package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/pattern"
)

// --- helpers -------------------------------------------------------

func mustAggPlan(t *testing.T, a *automaton.Automaton, spec *pattern.AggSpec) *AggPlan {
	t.Helper()
	plan, err := CompileAggregate(a, spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// statsDoc mirrors the JSON document Aggregator.Stats renders.
type statsDoc struct {
	Ver        uint64       `json:"ver"`
	Aggregates []string     `json:"aggregates"`
	Partition  string       `json:"partition"`
	Having     string       `json:"having"`
	Delta      bool         `json:"delta"`
	Groups     []statsGroup `json:"groups"`
	Dropped    []any        `json:"dropped"`
}

type statsGroup struct {
	Key    any    `json:"key"`
	Ver    uint64 `json:"ver"`
	Values []any  `json:"values"`
}

func parseStats(t *testing.T, data []byte) statsDoc {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var doc statsDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stats document does not parse: %v\n%s", err, data)
	}
	return doc
}

// wantStatInt asserts a stats token is exactly the integer want.
func wantStatInt(t *testing.T, got any, want int64, ctx string) {
	t.Helper()
	n, ok := got.(json.Number)
	if !ok {
		t.Fatalf("%s: got %T(%v), want integer %d", ctx, got, got, want)
	}
	if n.String() != strconv.FormatInt(want, 10) {
		t.Fatalf("%s: got %s, want %d", ctx, n, want)
	}
}

// wantStatFloat asserts a stats token equals the float want bit-wise,
// accounting for the non-finite-as-string encoding.
func wantStatFloat(t *testing.T, got any, want float64, ctx string) {
	t.Helper()
	if math.IsNaN(want) || math.IsInf(want, 0) {
		s, ok := got.(string)
		if !ok || s != strconv.FormatFloat(want, 'g', -1, 64) {
			t.Fatalf("%s: got %T(%v), want non-finite string %q", ctx, got, got, strconv.FormatFloat(want, 'g', -1, 64))
		}
		return
	}
	n, ok := got.(json.Number)
	if !ok {
		t.Fatalf("%s: got %T(%v), want number %v", ctx, got, got, want)
	}
	f, err := strconv.ParseFloat(n.String(), 64)
	if err != nil || math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%s: got %s, want %v", ctx, n, want)
	}
}

// --- running-example golden ---------------------------------------

// TestAggregateRunningExample folds the paper's three Q1 matches per
// patient: sum(p.V) adds the chemotherapy doses of each match's p+
// binding. Patient 1 contributes one match (111.5+111.5), patient 2
// two (88*3 and 88*2). The full JSON document is pinned so the stats
// wire format cannot drift silently.
func TestAggregateRunningExample(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	spec := &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Var: "p", Attr: "V"},
		},
		Partition: "ID",
	}
	ag := NewAggregator(mustAggPlan(t, a, spec))
	matches, metrics, err := Run(a, paperdata.Relation(), WithAggregation(ag), WithAggregateOnly(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("aggregate-only run materialized %d matches", len(matches))
	}
	if metrics.Matches != 3 {
		t.Errorf("metrics.Matches = %d, want 3 folded matches", metrics.Matches)
	}
	if ag.Folds() != 3 {
		t.Errorf("Folds() = %d, want 3", ag.Folds())
	}
	data, ver, _ := ag.Stats(0)
	if ver != 3 {
		t.Errorf("ver = %d, want 3", ver)
	}
	want := `{"ver":3,"aggregates":["count","sum(p.V)"],"partition":"ID",` +
		`"groups":[{"key":1,"ver":1,"values":[1,223]},{"key":2,"ver":3,"values":[2,440]}]}`
	if string(data) != want {
		t.Errorf("stats document:\n got %s\nwant %s", data, want)
	}
}

// TestAggregateMatchesEnumeration: with WithAggregateOnly(false) the
// same run both enumerates and folds; folded count equals the match
// count, and the stats equal the aggregate-only run's byte for byte.
func TestAggregateMatchesEnumeration(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	spec := &pattern.AggSpec{
		Items:     []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Attr: "V"}},
		Partition: "ID",
	}
	plan := mustAggPlan(t, a, spec)

	both := NewAggregator(plan)
	matches, _, err := Run(a, paperdata.Relation(), WithAggregation(both))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("materializing run returned %d matches, want 3", len(matches))
	}
	only := NewAggregator(plan)
	if _, _, err := Run(a, paperdata.Relation(), WithAggregation(only), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	d1, _, _ := both.Stats(0)
	d2, _, _ := only.Stats(0)
	if !bytes.Equal(d1, d2) {
		t.Errorf("materializing and aggregate-only stats differ:\n%s\n%s", d1, d2)
	}
}

// --- property test: buffer fold == fold over enumerated matches ----

// refVal is the test-side scalar accumulator, maintained with plain
// arithmetic independent of the engine's fold functions.
type refVal struct {
	n int64
	i int64
	f float64
}

func refFoldFloat(rv *refVal, fn pattern.AggFunc, f float64, n int64) {
	switch {
	case rv.n == 0:
		rv.f = f
	case fn == pattern.AggSum || fn == pattern.AggAvg:
		rv.f += f
	case math.IsNaN(f) || math.IsNaN(rv.f):
		rv.f = math.NaN()
	case fn == pattern.AggMin:
		rv.f = math.Min(rv.f, f)
	case fn == pattern.AggMax:
		rv.f = math.Max(rv.f, f)
	}
	rv.n += n
}

func refFoldInt(rv *refVal, fn pattern.AggFunc, i int64, n int64) {
	switch {
	case rv.n == 0:
		rv.i = i
	case fn == pattern.AggSum || fn == pattern.AggAvg:
		rv.i += i
	case fn == pattern.AggMin && i < rv.i:
		rv.i = i
	case fn == pattern.AggMax && i > rv.i:
		rv.i = i
	}
	rv.n += n
}

type refGroup struct {
	key   event.Value
	count int64
	vals  []refVal
	ver   uint64
}

// refAggregate folds enumerated matches into per-partition groups the
// straightforward way: per match, walk the bound events in
// chronological order and accumulate each slot, then merge the
// per-match partial into its group. This is the semantics the
// runner's fold from the match buffer must reproduce exactly, float
// rounding included.
func refAggregate(a *automaton.Automaton, plan *AggPlan, matches []Match) []*refGroup {
	groups := make(map[string]*refGroup)
	var order []*refGroup
	for mi, m := range matches {
		varOf := make(map[int]int)
		for _, b := range m.Bindings {
			vi := a.VarIndex(b.Var)
			for _, e := range b.Events {
				varOf[e.Seq] = vi
			}
		}
		evs := m.Events()
		partials := make([]refVal, len(plan.slots))
		for _, e := range evs {
			for s := range plan.slots {
				slot := &plan.slots[s]
				if slot.varIdx == aggNone || (slot.varIdx >= 0 && slot.varIdx != varOf[e.Seq]) {
					continue
				}
				v := e.Attrs[slot.attr]
				if slot.isFloat {
					if v.Kind() == event.KindFloat {
						refFoldFloat(&partials[s], slot.fn, v.Float64(), 1)
					}
				} else if v.Kind() == event.KindInt {
					refFoldInt(&partials[s], slot.fn, v.Int64(), 1)
				}
			}
		}
		keyEnc := ""
		var key event.Value
		if plan.partAttr >= 0 {
			key = evs[0].Attrs[plan.partAttr]
			keyEnc = key.Encode()
		}
		g := groups[keyEnc]
		if g == nil {
			g = &refGroup{key: key, vals: make([]refVal, len(plan.slots))}
			groups[keyEnc] = g
			order = append(order, g)
		}
		g.count++
		g.ver = uint64(mi + 1)
		for s := range plan.slots {
			if partials[s].n == 0 {
				continue
			}
			slot := &plan.slots[s]
			if slot.isFloat {
				refFoldFloat(&g.vals[s], slot.fn, partials[s].f, partials[s].n)
			} else {
				refFoldInt(&g.vals[s], slot.fn, partials[s].i, partials[s].n)
			}
		}
	}
	return order
}

// compareStats checks an Aggregator's snapshot against reference
// groups: same group order, keys, versions and values, with empty
// min/max rendered null and empty sums rendered zero.
func compareStats(t *testing.T, plan *AggPlan, doc statsDoc, want []*refGroup, ctx string) {
	t.Helper()
	if len(doc.Groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", ctx, len(doc.Groups), len(want))
	}
	for gi, g := range doc.Groups {
		w := want[gi]
		gctx := ctx + "/group " + strconv.Itoa(gi)
		switch w.key.Kind() {
		case event.KindNull:
			if g.Key != nil {
				t.Fatalf("%s: key = %v, want null", gctx, g.Key)
			}
		case event.KindInt:
			wantStatInt(t, g.Key, w.key.Int64(), gctx+" key")
		case event.KindString:
			if s, ok := g.Key.(string); !ok || s != w.key.Str() {
				t.Fatalf("%s: key = %v, want %q", gctx, g.Key, w.key.Str())
			}
		}
		if g.Ver != w.ver {
			t.Fatalf("%s: ver = %d, want %d", gctx, g.Ver, w.ver)
		}
		if len(g.Values) != len(plan.cols) {
			t.Fatalf("%s: %d values, want %d", gctx, len(g.Values), len(plan.cols))
		}
		for ci, c := range plan.cols {
			vctx := gctx + "/" + plan.cols[ci].label
			if c.slot < 0 {
				wantStatInt(t, g.Values[ci], w.count, vctx)
				continue
			}
			rv := w.vals[c.slot]
			slot := &plan.slots[c.slot]
			if rv.n == 0 && slot.fn != pattern.AggSum {
				if g.Values[ci] != nil {
					t.Fatalf("%s: empty %s = %v, want null", vctx, slot.fn, g.Values[ci])
				}
				continue
			}
			if slot.fn == pattern.AggAvg {
				// The reference divides the accumulated (sum, count) pair
				// the same way the renderer does: always a float.
				want := float64(rv.i) / float64(rv.n)
				if slot.isFloat {
					want = rv.f / float64(rv.n)
				}
				wantStatFloat(t, g.Values[ci], want, vctx)
				continue
			}
			if slot.isFloat {
				wantStatFloat(t, g.Values[ci], rv.f, vctx)
			} else {
				wantStatInt(t, g.Values[ci], rv.i, vctx)
			}
		}
	}
}

// TestAggregatePropertyRandom is the core equivalence property:
// on random patterns (sequences, Kleene-plus groups, permuted sets)
// over random streams seeded with NaN and ±Inf values, the runner's
// aggregation must equal a fold over the enumerated match set — group
// for group, bit for bit.
func TestAggregatePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := simpleSchema()
	shapes := []func(within event.Duration) *pattern.Pattern{
		func(w event.Duration) *pattern.Pattern { // ⟨{x},{y}⟩
			return pattern.New().
				Set(pattern.Var("x")).Set(pattern.Var("y")).
				WhereConst("x", "L", pattern.Eq, event.String("A")).
				WhereConst("y", "L", pattern.Eq, event.String("B")).
				Within(w).MustBuild()
		},
		func(w event.Duration) *pattern.Pattern { // ⟨{c,p+},{b}⟩, Kleene plus
			return pattern.New().
				Set(pattern.Var("c"), pattern.Plus("p")).Set(pattern.Var("b")).
				WhereConst("c", "L", pattern.Eq, event.String("A")).
				WhereConst("p", "L", pattern.Eq, event.String("B")).
				WhereConst("b", "L", pattern.Eq, event.String("C")).
				Within(w).MustBuild()
		},
		func(w event.Duration) *pattern.Pattern { // PERMUTE(a,b)
			return pattern.New().
				Set(pattern.Var("a"), pattern.Var("b")).
				WhereConst("a", "L", pattern.Eq, event.String("A")).
				WhereConst("b", "L", pattern.Eq, event.String("B")).
				Within(w).MustBuild()
		},
	}
	floats := []float64{1.5, -2.25, 3, 0.1, 100.75, math.NaN(), math.Inf(1), math.Inf(-1)}
	items := []pattern.AggItem{
		{Func: pattern.AggCount},
		{Func: pattern.AggSum, Attr: "V"},
		{Func: pattern.AggMin, Attr: "V"},
		{Func: pattern.AggMax, Attr: "V"},
		{Func: pattern.AggSum, Attr: "ID"},
		{Func: pattern.AggMin, Attr: "ID"},
		{Func: pattern.AggAvg, Attr: "V"},
		{Func: pattern.AggAvg, Attr: "ID"},
	}
	for iter := 0; iter < 60; iter++ {
		shape := rng.Intn(len(shapes))
		p := shapes[shape](event.Duration(3 + rng.Intn(10)))
		a := compile(t, p, schema)

		spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}}}
		for _, it := range items[1:] {
			if rng.Intn(2) == 0 {
				spec.Items = append(spec.Items, it)
			}
		}
		if shape == 1 && rng.Intn(2) == 0 {
			spec.Items = append(spec.Items, pattern.AggItem{Func: pattern.AggSum, Var: "p", Attr: "V"})
		}
		if rng.Intn(2) == 0 {
			spec.Partition = "ID"
		}
		plan := mustAggPlan(t, a, spec)

		r := event.NewRelation(schema)
		tt := event.Time(0)
		for i := 0; i < 35; i++ {
			tt += event.Time(rng.Intn(3))
			l := string(rune('A' + rng.Intn(3)))
			r.MustAppend(tt, event.Int(int64(1+rng.Intn(3))), event.String(l), event.Float(floats[rng.Intn(len(floats))]))
		}

		matches, em, err := Run(a, r)
		if err != nil {
			t.Fatal(err)
		}
		ag := NewAggregator(plan)
		folded, am, err := Run(a, r, WithAggregation(ag), WithAggregateOnly(true))
		if err != nil {
			t.Fatal(err)
		}
		ctx := "iter " + strconv.Itoa(iter)
		if len(folded) != 0 {
			t.Fatalf("%s: aggregate-only run returned %d matches", ctx, len(folded))
		}
		if am.Matches != em.Matches || ag.Folds() != uint64(len(matches)) {
			t.Fatalf("%s: folded %d (metrics %d), enumerated %d", ctx, ag.Folds(), am.Matches, len(matches))
		}
		data, ver, _ := ag.Stats(0)
		if ver != uint64(len(matches)) {
			t.Fatalf("%s: stats ver = %d, want %d", ctx, ver, len(matches))
		}
		compareStats(t, plan, parseStats(t, data), refAggregate(a, plan, matches), ctx)
	}
}

// TestAggregateOptionalVariants: aggregation over the variants of a
// pattern with optional Kleene variables (v*). The variant that
// excludes the optional variable compiles its var-restricted slots to
// never-contributing ones: min over the excluded variable renders
// null, sum renders 0, and the unrestricted aggregates still fold.
func TestAggregateOptionalVariants(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("a"), pattern.Star("o")).
		WhereConst("a", "L", pattern.Eq, event.String("A")).
		WhereConst("o", "L", pattern.Eq, event.String("B")).
		Within(5).MustBuild()
	variants, err := pattern.ExpandOptionals(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 2 {
		t.Fatalf("ExpandOptionals returned %d variants, want 2", len(variants))
	}
	spec := &pattern.AggSpec{Items: []pattern.AggItem{
		{Func: pattern.AggCount},
		{Func: pattern.AggSum, Var: "o", Attr: "V"},
		{Func: pattern.AggMin, Var: "o", Attr: "V"},
		{Func: pattern.AggSum, Attr: "V"},
	}}
	// Stream with only A events: the with-o variant finds nothing, the
	// without-o variant folds pure-a matches with empty o slots.
	r := rel(t, "A@1/1/2.5", "A@3/1/4.5")
	var withO, withoutO *automaton.Automaton
	for _, v := range variants {
		a := compile(t, v, simpleSchema())
		if a.VarIndex("o") >= 0 {
			withO = a
		} else {
			withoutO = a
		}
	}
	if withO == nil || withoutO == nil {
		t.Fatal("expected one variant with o and one without")
	}

	ag := NewAggregator(mustAggPlan(t, withoutO, spec))
	if _, _, err := Run(withoutO, r, WithAggregation(ag), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	data, _, _ := ag.Stats(0)
	want := `{"ver":2,"aggregates":["count","sum(o.V)","min(o.V)","sum(V)"],` +
		`"groups":[{"key":null,"ver":2,"values":[2,0,null,7]}]}`
	if string(data) != want {
		t.Errorf("without-o variant stats:\n got %s\nwant %s", data, want)
	}

	ag2 := NewAggregator(mustAggPlan(t, withO, spec))
	r2 := rel(t, "A@1/1/2.5", "B@2/1/1.25", "B@3/1/0.5")
	matches, _, err := Run(withO, r2, WithAggregation(ag2))
	if err != nil {
		t.Fatal(err)
	}
	compareStats(t, ag2.Plan(), parseStats(t, mustStats(ag2)), refAggregate(withO, ag2.Plan(), matches), "with-o")
}

func mustStats(ag *Aggregator) []byte {
	data, _, _ := ag.Stats(0)
	return data
}

// --- HAVING and the delta protocol ---------------------------------

// havingFixture runs ⟨{x},{y}⟩ with AGGREGATE count, sum(y.V)
// PER PARTITION ID HAVING sum(y.V) < 10 over a stepped stream,
// returning the runner and aggregator mid-stream for delta probing.
func havingFixture(t *testing.T) (*automaton.Automaton, *AggPlan) {
	t.Helper()
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{
		Items:     []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "y", Attr: "V"}},
		Partition: "ID",
		Having: []pattern.HavingCond{{
			Item:  pattern.AggItem{Func: pattern.AggSum, Var: "y", Attr: "V"},
			Op:    pattern.Lt,
			Const: event.Float(10),
		}},
	}
	return a, mustAggPlan(t, a, spec)
}

func TestAggregateHavingFiltersAtReadTime(t *testing.T) {
	a, plan := havingFixture(t)
	ag := NewAggregator(plan)
	// Partition 1 accumulates sum(y.V)=4 (passes); partition 2 sums 12
	// in one match (fails).
	r := rel(t, "A@1/1/0", "B@2/1/4", "A@3/2/0", "B@4/2/12")
	if _, _, err := Run(a, r, WithAggregation(ag), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	data, ver, _ := ag.Stats(0)
	if ver != 2 {
		t.Fatalf("ver = %d, want 2 folds", ver)
	}
	doc := parseStats(t, data)
	if doc.Having != "sum(y.V) < 10" {
		t.Errorf("having = %q", doc.Having)
	}
	if len(doc.Groups) != 1 {
		t.Fatalf("groups = %s, want only partition 1 to pass HAVING", data)
	}
	wantStatInt(t, doc.Groups[0].Key, 1, "surviving group key")
	// The filter is read-time state, not fold-time: the failing group
	// still exists and counts toward ses_agg_groups.
	if ag.NumGroups() != 2 {
		t.Errorf("NumGroups() = %d, want 2 live groups behind the filter", ag.NumGroups())
	}
}

// TestAggregateHavingNaNAndEmpty: a NaN aggregate fails every HAVING
// comparison, and an empty min/max fails its conjunct outright.
func TestAggregateHavingNaNAndEmpty(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{
		Items: []pattern.AggItem{{Func: pattern.AggCount}},
		Having: []pattern.HavingCond{{
			Item:  pattern.AggItem{Func: pattern.AggSum, Var: "y", Attr: "V"},
			Op:    pattern.Lt,
			Const: event.Float(1e308),
		}},
	}
	ag := NewAggregator(mustAggPlan(t, a, spec))
	if _, _, err := Run(a, rel(t, "A@1/1/0", "B@2/1/NaN"), WithAggregation(ag), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	if doc := parseStats(t, mustStats(ag)); len(doc.Groups) != 0 {
		t.Errorf("NaN sum must fail HAVING; got %s", mustStats(ag))
	}

	// min over a variable that bound no usable event: empty min fails.
	spec2 := &pattern.AggSpec{
		Items: []pattern.AggItem{{Func: pattern.AggCount}},
		Having: []pattern.HavingCond{{
			Item:  pattern.AggItem{Func: pattern.AggMin, Var: "q", Attr: "V"},
			Op:    pattern.Gt,
			Const: event.Float(0),
		}},
	}
	p := pattern.New().
		Set(pattern.Var("x")).Set(pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		Within(100).MustBuild()
	a2 := compile(t, p, simpleSchema())
	plan2, err := CompileAggregate(a2, spec2)
	if err == nil {
		// "q" is not a variable of this automaton, so the slot compiles
		// to a never-fed one (the optional-variant case); the empty min
		// must fail the HAVING conjunct.
		ag2 := NewAggregator(plan2)
		if _, _, err := Run(a2, rel(t, "A@1/1/1", "B@2/1/1"), WithAggregation(ag2), WithAggregateOnly(true)); err != nil {
			t.Fatal(err)
		}
		if doc := parseStats(t, mustStats(ag2)); len(doc.Groups) != 0 {
			t.Errorf("empty min must fail HAVING; got %s", mustStats(ag2))
		}
	}
}

// TestAggregateStatsDelta exercises the since/ver contract: nil data
// when nothing changed, delta documents carrying only changed groups,
// dropped keys for changed groups the filter now excludes, and a wait
// channel that closes on the next fold and disappears on Close.
func TestAggregateStatsDelta(t *testing.T) {
	a, plan := havingFixture(t)
	ag := NewAggregator(plan)
	r := New(a, WithAggregation(ag), WithAggregateOnly(true), WithEmitOnAccept(true))
	feed := func(specs ...string) {
		t.Helper()
		rl := rel(t, specs...)
		for i := 0; i < rl.Len(); i++ {
			if _, err := r.Step(rl.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Fold 1: partition 1, sum 4 — passes HAVING.
	feed("A@1/1/0", "B@2/1/4")
	data, ver, wait := ag.Stats(0)
	if ver != 1 || wait == nil {
		t.Fatalf("after one fold: ver = %d, wait = %v", ver, wait)
	}
	doc := parseStats(t, data)
	if len(doc.Groups) != 1 || doc.Delta {
		t.Fatalf("snapshot after one fold: %s", data)
	}

	// Nothing changed: nil data, same ver.
	data2, ver2, _ := ag.Stats(ver)
	if data2 != nil || ver2 != ver {
		t.Fatalf("unchanged since %d: data = %s, ver = %d", ver, data2, ver2)
	}

	// Fold 2 closes the wait channel; the delta since 1 carries only
	// partition 2.
	done := make(chan struct{})
	go func() { <-wait; close(done) }()
	feed("A@10/2/0", "B@11/2/5")
	<-done
	data3, ver3, _ := ag.Stats(ver)
	if ver3 != 2 {
		t.Fatalf("ver3 = %d", ver3)
	}
	doc3 := parseStats(t, data3)
	if !doc3.Delta || len(doc3.Groups) != 1 {
		t.Fatalf("delta since 1: %s", data3)
	}
	wantStatInt(t, doc3.Groups[0].Key, 2, "delta group key")

	// Fold 3 pushes partition 2's sum to 15, over the HAVING bound: the
	// delta since 2 reports it dropped rather than silently omitting it.
	feed("A@12/2/0", "B@13/2/10")
	data4, _, _ := ag.Stats(ver3)
	doc4 := parseStats(t, data4)
	if len(doc4.Groups) != 0 || len(doc4.Dropped) != 1 {
		t.Fatalf("delta since 2 must drop partition 2: %s", data4)
	}
	wantStatInt(t, doc4.Dropped[0], 2, "dropped key")

	// A full snapshot still renders partition 1 only.
	doc5 := parseStats(t, mustStats(ag))
	if len(doc5.Groups) != 1 {
		t.Fatalf("full snapshot after drop: %s", mustStats(ag))
	}

	// Close ends follow loops: wait comes back nil.
	ag.Close()
	if _, _, wait := ag.Stats(0); wait != nil {
		t.Error("wait channel must be nil after Close")
	}
}

// TestAggregateWakePerBlock: Stats followers are woken at the end of a
// StepBlock or Flush that folded something — once for all of its
// folds — and not by a block that folded nothing.
func TestAggregateWakePerBlock(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}}}
	ag := NewAggregator(mustAggPlan(t, a, spec))
	r := New(a, WithAggregation(ag), WithAggregateOnly(true))
	rl := rel(t, "A@1", "B@2", "A@3", "B@4", "C@200", "A@201", "B@202")
	step := func(lo, hi int) {
		t.Helper()
		if _, err := r.StepBlock(event.Block{Events: rl.Events()[lo:hi]}); err != nil {
			t.Fatal(err)
		}
	}
	closed := func(wait <-chan struct{}) bool {
		select {
		case <-wait:
			return true
		default:
			return false
		}
	}

	_, ver, wait := ag.Stats(0)
	step(0, 4) // two accepting instances, emitted only when they expire
	if closed(wait) {
		t.Fatal("a block that folded nothing woke the follower")
	}
	step(4, 5) // C@200 expires both: two folds in one block
	if !closed(wait) {
		t.Fatal("a block that folded did not wake the follower")
	}
	if _, ver, wait = ag.Stats(ver); ver != 2 {
		t.Fatalf("after the expiring block: ver %d, want 2 folds", ver)
	}
	step(5, 7)
	if closed(wait) {
		t.Fatal("a block that folded nothing woke the follower")
	}
	r.Flush()
	if !closed(wait) || ag.Folds() != 3 {
		t.Fatalf("Flush folded %d matches in all and woke the follower: %v", ag.Folds(), closed(wait))
	}
}

// --- snapshot / crash recovery -------------------------------------

// TestAggregateSnapshotRoundTrip cuts an aggregating run at every
// event, snapshots, restores into a fresh aggregator and continues:
// the restored stats must equal the original's at the cut AND the
// completed run's stats must be byte-identical to an uninterrupted
// run — the /stats-after-recovery guarantee.
func TestAggregateSnapshotRoundTrip(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	spec := &pattern.AggSpec{
		Items: []pattern.AggItem{
			{Func: pattern.AggCount},
			{Func: pattern.AggSum, Var: "p", Attr: "V"},
			{Func: pattern.AggMin, Attr: "V"},
			{Func: pattern.AggMax, Attr: "V"},
		},
		Partition: "ID",
	}
	plan := mustAggPlan(t, a, spec)
	relation := paperdata.Relation()

	fullAg := NewAggregator(plan)
	if _, _, err := Run(a, relation, WithAggregation(fullAg), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	fullStats := mustStats(fullAg)

	for cut := 0; cut <= relation.Len(); cut++ {
		ag := NewAggregator(plan)
		r := New(a, WithAggregation(ag), WithAggregateOnly(true))
		for i := 0; i < cut; i++ {
			if _, err := r.Step(relation.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := r.SnapshotBytes()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		ag2 := NewAggregator(plan)
		restored, err := RestoreRunnerBytes(a, snap, WithAggregation(ag2), WithAggregateOnly(true))
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if !bytes.Equal(mustStats(ag), mustStats(ag2)) {
			t.Fatalf("cut %d: restored stats differ at the cut:\n%s\n%s", cut, mustStats(ag), mustStats(ag2))
		}
		// The restored runner must also re-snapshot canonically.
		snap2, err := restored.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("cut %d: snapshot is not canonical across a round trip", cut)
		}
		for i := cut; i < relation.Len(); i++ {
			if _, err := restored.Step(relation.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		restored.Flush()
		if got := mustStats(ag2); !bytes.Equal(got, fullStats) {
			t.Errorf("cut %d: final stats diverge from uninterrupted run:\n got %s\nwant %s", cut, got, fullStats)
		}
	}
}

// TestAggregateSnapshotVersionCompat: a runner without an aggregator
// keeps writing version-1 snapshots (byte compatibility with
// pre-aggregation readers), and restoring them still works.
func TestAggregateSnapshotVersionCompat(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	r := New(a)
	rl := rel(t, "A@1/1/0")
	if _, err := r.Step(rl.Event(0)); err != nil {
		t.Fatal(err)
	}
	snap, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"version":1`)) {
		t.Errorf("aggregation-free snapshot must stay version 1: %.120s", snap)
	}
	if bytes.Contains(snap, []byte(`"agg"`)) {
		t.Errorf("aggregation-free snapshot must not carry an agg section")
	}
	if _, err := RestoreRunnerBytes(a, snap); err != nil {
		t.Errorf("version-1 restore: %v", err)
	}
}

// TestAggregateSnapshotConfigMismatch: restoring across an
// aggregation-configuration change errors in both directions instead
// of silently dropping or inventing aggregate state.
func TestAggregateSnapshotConfigMismatch(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}}, Partition: "ID"}
	plan := mustAggPlan(t, a, spec)

	withAgg, err := New(a, WithAggregation(NewAggregator(plan))).SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreRunnerBytes(a, withAgg); err == nil ||
		!strings.Contains(err.Error(), "no aggregator") {
		t.Errorf("agg snapshot into plain restore: err = %v", err)
	}

	plain, err := New(a).SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreRunnerBytes(a, plain, WithAggregation(NewAggregator(plan))); err == nil ||
		!strings.Contains(err.Error(), "no aggregation state") {
		t.Errorf("plain snapshot into agg restore: err = %v", err)
	}
}

// --- executor surface ----------------------------------------------

// TestAggregateRejectedExecutors: the union executor refuses an
// aggregation option instead of folding incorrectly (its post-hoc
// maximality filter would drop matches already folded).
func TestAggregateRejectedExecutors(t *testing.T) {
	a := compile(t, paperdata.QueryQ1(), paperdata.Schema())
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}}}
	plan := mustAggPlan(t, a, spec)

	if _, err := NewUnion([]*automaton.Automaton{a}, WithAggregation(NewAggregator(plan))); err == nil ||
		!strings.Contains(err.Error(), "union") {
		t.Errorf("NewUnion: err = %v", err)
	}
}

// TestAggregateReset: Runner.Reset clears aggregate state so a
// supervised restart replaying its input converges to the same stats
// rather than double-counting.
func TestAggregateReset(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "y", Attr: "V"}}}
	ag := NewAggregator(mustAggPlan(t, a, spec))
	r := New(a, WithAggregation(ag), WithAggregateOnly(true), WithEmitOnAccept(true))
	rl := rel(t, "A@1/1/0", "B@2/1/4")
	run := func() {
		t.Helper()
		for i := 0; i < rl.Len(); i++ {
			if _, err := r.Step(rl.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	first := mustStats(ag)
	r.Reset()
	if ag.Folds() != 0 || ag.NumGroups() != 0 {
		t.Fatalf("Reset left %d folds, %d groups", ag.Folds(), ag.NumGroups())
	}
	run()
	if again := mustStats(ag); !bytes.Equal(first, again) {
		t.Errorf("replay after Reset diverged:\n%s\n%s", first, again)
	}
}

// TestAggregateKindMismatchSkipped: an event whose attribute kind
// drifts from the schema-declared slot type is skipped by the
// accumulator (matching the engine's general schema-drift tolerance)
// rather than corrupting the fold or panicking.
func TestAggregateKindMismatchSkipped(t *testing.T) {
	a := compile(t, seqPattern(t, 100), simpleSchema())
	spec := &pattern.AggSpec{Items: []pattern.AggItem{
		{Func: pattern.AggCount}, {Func: pattern.AggSum, Attr: "V"}, {Func: pattern.AggMin, Attr: "V"},
	}}
	ag := NewAggregator(mustAggPlan(t, a, spec))
	r := New(a, WithAggregation(ag), WithAggregateOnly(true), WithEmitOnAccept(true))
	// Hand-built events: y's V carries a string where the schema says
	// float. The x contribution still folds.
	evs := []*event.Event{
		{Seq: 0, Time: 1, Attrs: []event.Value{event.Int(1), event.String("A"), event.Float(2.5)}},
		{Seq: 1, Time: 2, Attrs: []event.Value{event.Int(1), event.String("B"), event.String("oops")}},
	}
	for _, e := range evs {
		if _, err := r.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	want := `{"ver":1,"aggregates":["count","sum(V)","min(V)"],` +
		`"groups":[{"key":null,"ver":1,"values":[1,2.5,2.5]}]}`
	if got := mustStats(ag); string(got) != want {
		t.Errorf("stats:\n got %s\nwant %s", got, want)
	}
}

// foldOrderStream is a stream for groupPattern whose P values make
// float addition order-dependent: 1 + 1e16 rounds back to 1e16, so the
// sum of {1, 1e16, -1e16} is 0 oldest binding first and 1 newest first.
// p+ binds three of an episode's five values when c and d take the
// other two. Each episode orders the values differently and then lapses
// out of the window, and IDs vary within an episode, so the oldest
// bound event's ID — the partition key — differs from the newest's.
func foldOrderStream(t *testing.T) *event.Relation {
	t.Helper()
	orders := [][]float64{
		{1, 1e16, -1e16, 1, 2},
		{-1e16, 1, 1e16, 3, 1},
		{1e16, 1, -1e16, -1, 1},
		{1, -1e16, 1, 1e16, 1},
	}
	r := event.NewRelation(simpleSchema())
	for k, vals := range orders {
		base := event.Time(k) * event.Time(300*event.Hour)
		for i, v := range vals {
			r.MustAppend(base+event.Time(i), event.Int(int64(1+(k+i)%2)), event.String("P"), event.Float(v))
		}
		r.MustAppend(base+event.Time(len(vals)), event.Int(int64(1+k%2)), event.String("B"), event.Float(0))
	}
	return r
}

// TestAggregateFoldOrder pins the fold order of a match and its
// partition key: an accepted match's bindings are contributed oldest
// first into a per-match partial, which is then folded into the group
// of the oldest bound event's ID. The aggregate-only run, the
// materializing run and a run snapshotted and restored at every cut
// must render byte-identical stats, and those must equal the reference
// fold over the materialized matches; a newest-first walk does not.
func TestAggregateFoldOrder(t *testing.T) {
	a := compile(t, groupPattern(), simpleSchema())
	spec := &pattern.AggSpec{
		Items:     []pattern.AggItem{{Func: pattern.AggCount}, {Func: pattern.AggSum, Var: "p", Attr: "V"}},
		Partition: "ID",
	}
	plan := mustAggPlan(t, a, spec)
	relation := foldOrderStream(t)

	only := NewAggregator(plan)
	if _, _, err := Run(a, relation, WithAggregation(only), WithAggregateOnly(true)); err != nil {
		t.Fatal(err)
	}
	both := NewAggregator(plan)
	matches, _, err := Run(a, relation, WithAggregation(both))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < len(relation.Events())/5 {
		t.Fatalf("only %d matches: the stream does not exercise the fold", len(matches))
	}
	want := mustStats(only)
	if got := mustStats(both); !bytes.Equal(got, want) {
		t.Fatalf("materializing and aggregate-only stats differ:\n%s\n%s", got, want)
	}
	compareStats(t, plan, parseStats(t, want), refAggregate(a, plan, matches), "fold order")

	for cut := 1; cut < relation.Len(); cut++ {
		ag := NewAggregator(plan)
		r := New(a, WithAggregation(ag), WithAggregateOnly(true))
		for i := 0; i < cut; i++ {
			if _, err := r.Step(relation.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := r.SnapshotBytes()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		restoredAg := NewAggregator(plan)
		restored, err := RestoreRunnerBytes(a, snap, WithAggregation(restoredAg), WithAggregateOnly(true))
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for i := cut; i < relation.Len(); i++ {
			if _, err := restored.Step(relation.Event(i)); err != nil {
				t.Fatal(err)
			}
		}
		restored.Flush()
		if got := mustStats(restoredAg); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: restored run's stats diverge:\n got %s\nwant %s", cut, got, want)
		}
	}
}
