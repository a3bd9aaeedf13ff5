package ses_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/chemo"
	"repro/internal/paperdata"
)

// buildChemoRelation reconstructs the paper's Figure 1 relation
// through the public API only.
func buildChemoRelation(t *testing.T) (*ses.Relation, *ses.Schema) {
	t.Helper()
	schema := ses.MustSchema(
		ses.Field{Name: "ID", Type: ses.TypeInt},
		ses.Field{Name: "L", Type: ses.TypeString},
		ses.Field{Name: "V", Type: ses.TypeFloat},
		ses.Field{Name: "U", Type: ses.TypeString},
	)
	rel := ses.NewRelation(schema)
	src := paperdata.Relation()
	for i := 0; i < src.Len(); i++ {
		e := src.Event(i)
		if err := rel.Append(e.Time, e.Attrs...); err != nil {
			t.Fatal(err)
		}
	}
	return rel, schema
}

const q1Text = `
PATTERN PERMUTE(c, p+, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
  AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
WITHIN 264h`

func TestCompileFromQueryText(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q, err := ses.Compile(q1Text, schema)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() != 9 || q.Transitions() != 17 {
		t.Errorf("automaton shape = %d states, %d transitions", q.States(), q.Transitions())
	}
	matches, metrics, err := q.Match(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("matches = %d", len(matches))
	}
	if metrics.EventsProcessed != 14 {
		t.Errorf("EventsProcessed = %d", metrics.EventsProcessed)
	}
}

func TestCompileFromBuilder(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	p, err := ses.NewPattern().
		Set(ses.Var("c"), ses.Plus("p"), ses.Var("d")).
		Set(ses.Var("b")).
		WhereConst("c", "L", ses.Eq, ses.String("C")).
		WhereConst("d", "L", ses.Eq, ses.String("D")).
		WhereConst("p", "L", ses.Eq, ses.String("P")).
		WhereConst("b", "L", ses.Eq, ses.String("B")).
		WhereVars("c", "ID", ses.Eq, "p", "ID").
		WhereVars("c", "ID", ses.Eq, "d", "ID").
		WhereVars("d", "ID", ses.Eq, "b", "ID").
		Within(264 * ses.Hour).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ses.Compile(p, schema)
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := q.Match(rel, ses.WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Errorf("matches = %d", len(matches))
	}
}

func TestCompileErrors(t *testing.T) {
	_, schema := buildChemoRelation(t)
	if _, err := ses.Compile("not a query", schema); err == nil {
		t.Errorf("bad query accepted")
	}
	if _, err := ses.Compile("PATTERN (a) WHERE a.NOPE = 1 WITHIN 1h", schema); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustCompile should panic")
		}
	}()
	ses.MustCompile("nope", schema)
}

func TestRunnerIncremental(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	r := q.Runner(ses.WithFilter(true))
	var matches []ses.Match
	for i := 0; i < rel.Len(); i++ {
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		matches = append(matches, ms...)
	}
	matches = append(matches, r.Flush()...)
	if len(matches) != 3 {
		t.Errorf("incremental matches = %d", len(matches))
	}
	if r.Metrics().MaxSimultaneousInstances == 0 {
		t.Errorf("metrics empty")
	}
}

func TestAnalyzeExposed(t *testing.T) {
	p := ses.MustParseQuery(q1Text)
	a := ses.Analyze(p)
	if !a.Deterministic {
		t.Errorf("Q1 should be deterministic (all variables mutually exclusive)")
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	rel, _ := buildChemoRelation(t)
	var b strings.Builder
	if err := ses.WriteCSV(&b, rel); err != nil {
		t.Fatal(err)
	}
	back, err := ses.LoadCSV(strings.NewReader(b.String()), ses.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rel.Len() {
		t.Errorf("round trip lost events: %d != %d", back.Len(), rel.Len())
	}
	q := ses.MustCompile(q1Text, back.Schema())
	matches, _, err := q.Match(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Errorf("matches after round trip = %d", len(matches))
	}
}

func TestWriteDOTPublic(t *testing.T) {
	_, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	var b strings.Builder
	if err := q.WriteDOT(&b, "q1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "doublecircle") {
		t.Errorf("DOT output suspicious: %q", b.String()[:80])
	}
}

func TestFilterMaximalExposed(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	matches, _, err := q.Match(rel)
	if err != nil {
		t.Fatal(err)
	}
	if got := ses.FilterMaximal(matches); len(got) != len(matches) {
		t.Errorf("FilterMaximal dropped matches on tie-free data")
	}
}

// TestOptionalVariablesEndToEnd exercises the optional-variable
// extension through the public API: a premedication check that is
// recommended but not mandatory, reported when present.
func TestOptionalVariablesEndToEnd(t *testing.T) {
	schema := ses.MustSchema(
		ses.Field{Name: "ID", Type: ses.TypeInt},
		ses.Field{Name: "L", Type: ses.TypeString},
	)
	q, err := ses.Compile(`
		PATTERN PERMUTE(c, pre?) THEN (b)
		WHERE c.L = 'C' AND pre.L = 'PRE' AND b.L = 'B'
		WITHIN 1d`, schema)
	if err != nil {
		t.Fatal(err)
	}
	if q.Variants() != 2 {
		t.Fatalf("Variants = %d", q.Variants())
	}
	rel := ses.NewRelation(schema)
	add := func(tt ses.Time, l string) {
		rel.MustAppend(tt, ses.Int(1), ses.String(l))
	}
	// Episode 1 with premedication, episode 2 without.
	add(0, "PRE")
	add(100, "C")
	add(200, "B")
	add(100_000, "C")
	add(100_200, "B")
	matches, _, err := q.Match(rel)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range matches {
		got[m.String()] = true
	}
	if !got["{pre/e0, c/e1, b/e2}"] {
		t.Errorf("greedy optional match missing: %v", matches)
	}
	if !got["{c/e3, b/e4}"] {
		t.Errorf("optional-absent match missing: %v", matches)
	}
	if got["{c/e1, b/e2}"] {
		t.Errorf("non-maximal subset match survived: %v", matches)
	}

	// UnionRunner works; Runner panics on multi-variant queries.
	if _, err := q.UnionRunner(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Runner on optional query should panic")
		}
	}()
	q.Runner()
}

func TestOptionalBuilderConstructors(t *testing.T) {
	p, err := ses.NewPattern().
		Set(ses.Var("a"), ses.Opt("o"), ses.Star("s")).
		Within(ses.Hour).Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Sets[0][1].String() != "o?" || p.Sets[0][2].String() != "s*" {
		t.Errorf("optional markers lost: %v", p.Sets[0])
	}
}

func TestMatchPartitioned(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	matches, metrics, err := q.MatchPartitioned(rel, "ID", ses.WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	// Partitioned evaluation keeps the original sequence numbers, so
	// the two intended results of Example 1 render with global seqs.
	want := map[string]bool{
		"{c/e0, d/e2, p+/e3, p+/e8, b/e11}":         false,
		"{p+/e5, d/e6, c/e7, p+/e9, p+/e10, b/e12}": false,
	}
	for _, m := range matches {
		if _, ok := want[m.String()]; ok {
			want[m.String()] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing %s in %d partitioned matches", k, len(matches))
		}
	}
	// Matches come back ordered by start time.
	for i := 1; i < len(matches); i++ {
		if matches[i-1].First > matches[i].First {
			t.Errorf("matches not ordered by start time")
		}
	}
	if metrics.EventsProcessed != int64(rel.Len()) {
		t.Errorf("aggregated EventsProcessed = %d, want %d", metrics.EventsProcessed, rel.Len())
	}
	if _, _, err := q.MatchPartitioned(rel, "NOPE"); err == nil {
		t.Errorf("unknown partition attribute accepted")
	}
}

func TestStrategyOptionExposed(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	_, _, err := q.Match(rel, ses.WithStrategy(ses.SkipTillAny), ses.WithMaxInstances(10000))
	if err != nil {
		t.Fatal(err)
	}
}

func TestExplain(t *testing.T) {
	_, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	out := q.Explain()
	for _, frag := range []string{
		"PERMUTE(c, p+, d)", "case 1", "9 states, 17 transitions",
		"accept cp+db", `c: c.L = "C"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	// Optional-variable query: variant listing plus an unconstrained
	// variable note.
	opt := ses.MustCompile("PATTERN (a, o?) WHERE a.L = 'C' WITHIN 1h", schema)
	out = opt.Explain()
	for _, frag := range []string{"2 variant automata", "variant 0:", "o?: (none"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain (optional) missing %q:\n%s", frag, out)
		}
	}
}

// renderMatches prints matches one per line with their start and end
// times, the byte form the partitioned-evaluation identity tests
// compare.
func renderMatches(ms []ses.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s @[%d,%d]\n", m.String(), m.First, m.Last)
	}
	return b.String()
}

// perPartitionMatch is the reference MatchPartitioned must reproduce:
// Match on every partition of attr, the partitions' metrics merged,
// and the matches stably sorted by start time with equal starts in the
// first-occurrence order of their keys.
func perPartitionMatch(t *testing.T, q *ses.Query, rel *ses.Relation, attr string, opts ...ses.Option) ([]ses.Match, ses.Metrics) {
	t.Helper()
	parts, err := rel.Partition(attr)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := rel.Schema().Index(attr)
	first := map[ses.Value]int{}
	for i := 0; i < rel.Len(); i++ {
		k := rel.Event(i).Attrs[idx]
		if _, seen := first[k]; !seen {
			first[k] = len(first)
		}
	}
	type ranked struct {
		key int
		m   ses.Match
	}
	var all []ranked
	var metrics ses.Metrics
	for k, part := range parts {
		ms, m, err := q.Match(part, opts...)
		if err != nil {
			t.Fatal(err)
		}
		metrics.Merge(m)
		for _, match := range ms {
			all = append(all, ranked{first[k], match})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].m.First != all[j].m.First {
			return all[i].m.First < all[j].m.First
		}
		return all[i].key < all[j].key
	})
	out := make([]ses.Match, len(all))
	for i, r := range all {
		out[i] = r.m
	}
	return out, metrics
}

// crossKeyTieRelation holds two keys whose (a, b+) matches start at
// the same time. Key 1 occurs first, but key 2's next event lands more
// than τ after its match began, before key 1's does, so a keyed runner
// emits key 2's match first.
func crossKeyTieRelation(t *testing.T) (*ses.Relation, *ses.Query) {
	t.Helper()
	schema := ses.MustSchema(
		ses.Field{Name: "ID", Type: ses.TypeInt},
		ses.Field{Name: "L", Type: ses.TypeString},
	)
	rel := ses.NewRelation(schema)
	for _, e := range []struct {
		t  ses.Time
		id int64
		l  string
	}{
		{1, 1, "A"}, {1, 2, "A"}, {2, 1, "B"}, {2, 2, "B"}, {20, 2, "X"}, {30, 1, "X"},
	} {
		rel.MustAppend(e.t, ses.Int(e.id), ses.String(e.l))
	}
	q := ses.MustCompile("PATTERN (a, b+) WHERE a.L = 'A' AND b.L = 'B' WITHIN 10s", schema)
	return rel, q
}

// TestMatchPartitionedIsPerPartitionMatch checks that MatchPartitioned
// returns exactly the per-partition reference, byte for byte and with
// equal metrics, for the running example over the chemo datasets (ties
// across keys in D2..D5), an optional-variable query, and a hand-built
// cross-key tie.
func TestMatchPartitionedIsPerPartitionMatch(t *testing.T) {
	type tc struct {
		name string
		q    *ses.Query
		rel  *ses.Relation
	}
	var cases []tc
	tiny, err := chemo.Datasets(chemo.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := chemo.Datasets(chemo.Small(), 5)
	if err != nil {
		t.Fatal(err)
	}
	q1 := ses.MustCompile(q1Text, tiny[0].Schema())
	cases = append(cases, tc{"tiny/D1", q1, tiny[0]})
	for i, rel := range small {
		cases = append(cases, tc{fmt.Sprintf("small/D%d", i+1), q1, rel})
	}
	opt := ses.MustCompile(`
PATTERN PERMUTE(c, p+, d) THEN (b, o?)
WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' AND o.L = 'V'
WITHIN 264h`, tiny[0].Schema())
	for i, rel := range small[:3] {
		cases = append(cases, tc{fmt.Sprintf("optional/small/D%d", i+1), opt, rel})
	}
	tieRel, tieQ := crossKeyTieRelation(t)
	cases = append(cases, tc{"cross-key-tie", tieQ, tieRel})

	for _, c := range cases {
		for _, filter := range []bool{true, false} {
			name := fmt.Sprintf("%s/filter=%v", c.name, filter)
			got, gotM, err := c.q.MatchPartitioned(c.rel, "ID", ses.WithFilter(filter))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, wantM := perPartitionMatch(t, c.q, c.rel, "ID", ses.WithFilter(filter))
			if len(want) == 0 {
				t.Fatalf("%s: no matches; the case checks nothing", name)
			}
			if g, w := renderMatches(got), renderMatches(want); g != w {
				t.Errorf("%s: output differs from the per-partition reference:\n--- got ---\n%s--- want ---\n%s", name, g, w)
			}
			if gotM != wantM {
				t.Errorf("%s: metrics differ: got %+v, want %+v", name, gotM, wantM)
			}
		}
	}
}

// TestMatchPartitionedCrossKeyTieOrder pins the tiebreak: matches of
// different keys with one start time come out in the first-occurrence
// order of their keys, not in the keyed runner's step order.
func TestMatchPartitionedCrossKeyTieOrder(t *testing.T) {
	rel, q := crossKeyTieRelation(t)
	keys := func(ms []ses.Match) []int64 {
		var out []int64
		for _, m := range ms {
			if m.First != 1 {
				t.Fatalf("match %s starts at %d, want 1", m, m.First)
			}
			out = append(out, m.Bindings[0].Events[0].Attrs[0].Int64())
		}
		return out
	}
	got, _, err := q.MatchPartitioned(rel, "ID")
	if err != nil {
		t.Fatal(err)
	}
	if k := keys(got); !slices.Equal(k, []int64{1, 2}) {
		t.Errorf("MatchPartitioned key order = %v, want [1 2]", k)
	}
	r, err := q.KeyedRunner("ID")
	if err != nil {
		t.Fatal(err)
	}
	var raw []ses.Match
	for i := 0; i < rel.Len(); i++ {
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, ms...)
	}
	raw = append(raw, r.Flush()...)
	if k := keys(raw); !slices.Equal(k, []int64{2, 1}) {
		t.Errorf("keyed runner step order = %v, want [2 1]", k)
	}
}

// TestKeyedRunnerExposed drives a keyed Runner through the public API:
// supervised with WithPartitionKey, it reproduces MatchPartitioned's
// matches, and a checkpoint taken mid-stream restores with
// WithPartitionKey and finishes the run.
func TestKeyedRunnerExposed(t *testing.T) {
	rel, schema := buildChemoRelation(t)
	q := ses.MustCompile(q1Text, schema)
	want, _, err := q.MatchPartitioned(rel, "ID", ses.WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	out, sup, err := q.Supervise(context.Background(), feed(rel), ses.SuperviseConfig{},
		ses.WithPartitionKey("ID"), ses.WithFilter(true))
	if err != nil {
		t.Fatal(err)
	}
	var got []ses.Match
	for m := range out {
		got = append(got, m)
	}
	if err := sup.Err(); err != nil {
		t.Fatal(err)
	}
	lines := func(ms []ses.Match) []string {
		var out []string
		for _, m := range ms {
			b, err := ses.MatchJSON(m, schema)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		sort.Strings(out)
		return out
	}
	if g, w := lines(got), lines(want); len(w) == 0 || strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("keyed runner emitted %d matches, MatchPartitioned %d, or they differ", len(g), len(w))
	}

	half, _ := q.KeyedRunner("ID")
	var resumed []ses.Match
	for i := 0; i < rel.Len()/2; i++ {
		ms, err := half.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, ms...)
	}
	var ckpt bytes.Buffer
	if err := half.WriteSnapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	rest, err := q.RestoreRunner(&ckpt, ses.WithPartitionKey("ID"))
	if err != nil {
		t.Fatal(err)
	}
	for i := rel.Len() / 2; i < rel.Len(); i++ {
		ms, err := rest.Step(rel.Event(i))
		if err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, ms...)
	}
	resumed = append(resumed, rest.Flush()...)
	if g, w := lines(resumed), lines(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("restored keyed runner: %d matches, MatchPartitioned %d, or they differ", len(g), len(w))
	}

	if _, err := q.KeyedRunner("NOPE"); err == nil {
		t.Error("KeyedRunner should reject an unknown attribute")
	}
	opt := ses.MustCompile("PATTERN (a, o?) WHERE a.L = 'C' WITHIN 1h", schema)
	if _, err := opt.KeyedRunner("ID"); err == nil {
		t.Error("KeyedRunner should reject optional variables")
	}
}
