package ses_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/event"
	"repro/internal/pattern"
)

// TestOracleIsIndependent holds the oracle to its contract: its file
// imports nothing of the engine, the automaton or this package, and
// names nothing declared in another file of the test package, so no
// engine code can reach it through a shared helper.
func TestOracleIsIndependent(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "oracle_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name.Name != "ses_test" {
		t.Errorf("oracle_test.go is in package %s, want the external test package ses_test", f.Name.Name)
	}
	imported := map[string]bool{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imported[path[strings.LastIndex(path, "/")+1:]] = true
		if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") ||
			(strings.HasPrefix(path, "repro") && path != "repro/internal/event" && path != "repro/internal/pattern") {
			t.Errorf("oracle_test.go imports %q; it may import only the standard library, internal/event and internal/pattern", path)
		}
	}
	for _, id := range f.Unresolved {
		if !imported[id.Name] && types.Universe.Lookup(id.Name) == nil {
			t.Errorf("oracle_test.go names %s, declared outside the file", id.Name)
		}
	}
}

// oracleSchema is the schema of the differential's streams: a join
// attribute ID, a label L and a measurement V.
var oracleSchema = ses.MustSchema(
	ses.Field{Name: "ID", Type: ses.TypeInt},
	ses.Field{Name: "L", Type: ses.TypeString},
	ses.Field{Name: "V", Type: ses.TypeFloat},
)

// Comparison edge cases the random streams and constants draw from:
// NaN, ±Inf, and integers and floats on both sides of 2^53.
var (
	oracleInts   = []int64{0, 1, 2, 1 << 53, 1<<53 + 1}
	oracleFloats = []float64{-2.5, 0, 1, 3.75, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2}
	oracleOps    = []pattern.Op{pattern.Eq, pattern.Ne, pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge}
)

// caseKind selects what a random case may contain beyond the plain
// Definition-2 shapes.
type caseKind struct {
	ties     bool // tied timestamps
	optional bool // v? and v* variables
}

// oracleCase is one differential case: a pattern and a time-ordered,
// schema-valid stream of at most 12 events whose Seq is its position.
type oracleCase struct {
	p   *pattern.Pattern
	evs []event.Event
}

func (c oracleCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nstream:", c.p)
	for _, e := range c.evs {
		fmt.Fprintf(&b, " e%d@%d%v", e.Seq, e.Time, e.Attrs)
	}
	return b.String()
}

// randOracleCase draws a case. One in five is the fixed join shape
// (x, y+) THEN (z) with x.ID = y.ID over a P/Q stream; the rest are
// random patterns of 1–3 sets of singleton and group variables with
// constant conditions, joins and v.A φ v.A' conditions, over streams
// that cover the comparison edge cases. The window is the distance
// between two of the stream's events, so a binding can fall exactly τ
// after the first.
func randOracleCase(rng *rand.Rand, k caseKind) oracleCase {
	join := rng.Intn(5) == 0
	n := 6 + rng.Intn(7)
	evs := make([]event.Event, n)
	tm := event.Time(0)
	for i := range evs {
		if k.ties {
			tm += event.Time(rng.Intn(2))
		} else {
			tm += event.Time(1 + rng.Intn(3))
		}
		var id, l, v event.Value
		if join {
			id, l, v = event.Int(1+int64(rng.Intn(2))), event.String([]string{"P", "P", "Q"}[rng.Intn(3)]), event.Float(0)
		} else {
			id = event.Int(oracleInts[rng.Intn(len(oracleInts))])
			l = event.String([]string{"A", "B", "A", "B", "C"}[rng.Intn(5)]) // no condition names C
			v = event.Float(oracleFloats[rng.Intn(len(oracleFloats))])
		}
		evs[i] = event.Event{Seq: i, Time: tm, Attrs: []event.Value{id, l, v}}
	}
	window := event.Duration(1 + rng.Intn(4))
	if i, j := rng.Intn(n), rng.Intn(n); evs[j].Time != evs[i].Time {
		window = event.Duration(max(evs[i].Time, evs[j].Time) - min(evs[i].Time, evs[j].Time))
	}
	for {
		var p *pattern.Pattern
		if join {
			p = joinPattern(rng, k, window)
		} else {
			p = randOraclePattern(rng, k, window)
		}
		if p != nil && p.ValidateSchema(oracleSchema) == nil {
			return oracleCase{p: p, evs: evs}
		}
	}
}

// joinPattern is (x, y+) THEN (z) with x.L = 'P', y.L = 'P', z.L = 'Q'
// and x.ID = y.ID; with optional variables, y+ may become y*.
func joinPattern(rng *rand.Rand, k caseKind, window event.Duration) *pattern.Pattern {
	y := pattern.Plus("y")
	if k.optional && rng.Intn(2) == 0 {
		y = pattern.Star("y")
	}
	return pattern.New().
		Set(pattern.Var("x"), y).
		Set(pattern.Var("z")).
		WhereConst("x", "L", pattern.Eq, event.String("P")).
		WhereConst("y", "L", pattern.Eq, event.String("P")).
		WhereConst("z", "L", pattern.Eq, event.String("Q")).
		WhereVars("x", "ID", pattern.Eq, "y", "ID").
		Within(window).MustBuild()
}

// randOraclePattern draws 1–3 sets of one or two variables each.
func randOraclePattern(rng *rand.Rand, k caseKind, window event.Duration) *pattern.Pattern {
	op := func() pattern.Op { return oracleOps[rng.Intn(len(oracleOps))] }
	b := pattern.New()
	var names []string
	for s, sets := 0, 1+rng.Intn(3); s < sets; s++ {
		var vars []pattern.Variable
		for v, nv := 0, 1+rng.Intn(2); v < nv; v++ {
			name := string(rune('a' + len(names)))
			names = append(names, name)
			vr := pattern.Var(name)
			if rng.Intn(3) == 0 {
				vr = pattern.Plus(name)
			}
			if k.optional && rng.Intn(3) == 0 {
				vr.Optional = true
			}
			vars = append(vars, vr)
		}
		b.Set(vars...)
	}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			b.WhereConst(n, "L", pattern.Eq, event.String([]string{"A", "B"}[rng.Intn(2)]))
		}
		switch rng.Intn(9) {
		case 0, 1:
			b.WhereConst(n, "V", op(), event.Float(oracleFloats[rng.Intn(len(oracleFloats))]))
		case 2:
			b.WhereConst(n, "ID", op(), event.Int(oracleInts[rng.Intn(len(oracleInts))]))
		case 3: // int attribute against a float constant, and the reverse
			b.WhereConst(n, "ID", op(), event.Float(oracleFloats[rng.Intn(len(oracleFloats))]))
		case 4:
			b.WhereConst(n, "V", op(), event.Int(oracleInts[rng.Intn(len(oracleInts))]))
		}
		if rng.Intn(6) == 0 {
			b.WhereVars(n, "ID", op(), n, "V") // v.A φ v.A'
		}
	}
	for j := rng.Intn(3); j > 0; j-- {
		v1, v2 := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		if v1 == v2 {
			continue
		}
		attrs := []string{"ID", "V"}
		b.WhereVars(v1, attrs[rng.Intn(2)], op(), v2, attrs[rng.Intn(2)])
	}
	p, err := b.Within(window).Build()
	if err != nil {
		return nil
	}
	return p
}

// drift returns a copy of evs in which some attributes contradict the
// schema: a string or an int in V, a float in L, a string in ID.
func drift(rng *rand.Rand, evs []event.Event) []event.Event {
	out := make([]event.Event, len(evs))
	for i, e := range evs {
		e.Attrs = slices.Clone(e.Attrs)
		if rng.Intn(5) == 0 {
			switch rng.Intn(4) {
			case 0:
				e.Attrs[2] = event.String("drift")
			case 1:
				e.Attrs[2] = event.Int(1)
			case 2:
				e.Attrs[1] = event.Float(1.5)
			default:
				e.Attrs[0] = event.String("k")
			}
		}
		out[i] = e
	}
	return out
}

func relationOf(t *testing.T, evs []event.Event) *ses.Relation {
	t.Helper()
	rel := ses.NewRelation(oracleSchema)
	for _, e := range evs {
		if err := rel.Append(e.Time, e.Attrs...); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func rendered(ms []ses.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// sameMultiset reports whether a and b hold the same strings the same
// number of times.
func sameMultiset(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// oracleCases is how many random cases each differential runs.
func oracleCases() int {
	if testing.Short() {
		return 300
	}
	return 2000
}

// TestOracleDifferential: wherever the engine claims Definition 2 —
// no tied timestamps, no optional variables — every entry point
// returns exactly the oracle's matches, as a multiset:
//   - Query.Match, with the filter off and on;
//   - Query.Runner stepped by Step and by StepBlock at random splits,
//     over the stream with kind-drifted attributes;
//   - MatchPartitioned by ID, against the oracle run per key.
func TestOracleDifferential(t *testing.T) {
	matched, cases, boundary := 0, 0, 0
	for trial := 0; trial < oracleCases(); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := randOracleCase(rng, caseKind{})
		q := ses.MustCompile(c.p, oracleSchema)
		want := definition2(c.p, oracleSchema, c.evs)
		matched += len(want)
		if len(want) > 0 {
			cases++
		}
		for _, m := range want {
			if ts := timesOf(m, c.evs); event.Duration(ts[len(ts)-1]-ts[0]) == c.p.Window {
				boundary++
			}
		}
		check := func(name string, got, want []string) {
			t.Helper()
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d: %s disagrees with the oracle\n%s\n got %v\nwant %v", trial, name, c, got, want)
			}
		}

		rel := relationOf(t, c.evs)
		for _, filter := range []bool{false, true} {
			ms, _, err := q.Match(rel, ses.WithFilter(filter))
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Match(filter=%v)", filter), rendered(ms), want)
		}

		drifted := drift(rng, c.evs)
		wantDrifted := definition2(c.p, oracleSchema, drifted)
		filter := rng.Intn(2) == 0
		r := q.Runner(ses.WithFilter(filter))
		var got []string
		for i := range drifted {
			ms, err := r.Step(&drifted[i])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rendered(ms)...)
		}
		check(fmt.Sprintf("Runner.Step(filter=%v) on the drifted stream", filter), append(got, rendered(r.Flush())...), wantDrifted)
		r = q.Runner(ses.WithFilter(filter))
		got = got[:0]
		for lo := 0; lo < len(drifted); {
			hi := lo + 1 + rng.Intn(len(drifted)-lo)
			ms, err := r.StepBlock(event.Block{Events: drifted[lo:hi]})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rendered(ms)...)
			lo = hi
		}
		check(fmt.Sprintf("Runner.StepBlock(filter=%v) on the drifted stream", filter), append(got, rendered(r.Flush())...), wantDrifted)

		ms, _, err := q.MatchPartitioned(rel, "ID")
		if err != nil {
			t.Fatal(err)
		}
		check("MatchPartitioned(ID)", rendered(ms), perKey(c))
	}
	t.Logf("%d of %d cases match, %d matches, %d of them exactly τ long", cases, oracleCases(), matched, boundary)
	if cases < oracleCases()/3 || boundary == 0 {
		t.Fatalf("%d of %d cases match and %d matches are exactly τ long: the generator no longer exercises the engine",
			cases, oracleCases(), boundary)
	}
}

// perKey is the union of the oracle's matches over each ID's
// substream.
func perKey(c oracleCase) []string {
	var keys []event.Value
	parts := map[event.Value][]event.Event{}
	for _, e := range c.evs {
		k := e.Attrs[0]
		if _, ok := parts[k]; !ok {
			keys = append(keys, k)
		}
		parts[k] = append(parts[k], e)
	}
	var out []string
	for _, k := range keys {
		out = append(out, definition2(c.p, oracleSchema, parts[k])...)
	}
	return out
}

// TestOracleTiedTimestamps names the divergence ties cause (ROADMAP
// item 4). Condition 5 compares start times, and the engine applies it
// only in FilterMaximal: with tied timestamps a lineage that starts at
// the later of two tied events can bind a proper subset of one that
// starts at the earlier. So FilterMaximal(Query.Match) equals the
// oracle, and every match Query.Match returns beyond the oracle's is a
// proper subset of an oracle match with the same start time.
func TestOracleTiedTimestamps(t *testing.T) {
	extra := 0
	for trial := 0; trial < oracleCases(); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := randOracleCase(rng, caseKind{ties: true})
		extra += checkTied(t, fmt.Sprintf("trial %d", trial), c)
	}
	t.Logf("%d same-start subset matches over %d cases", extra, oracleCases())
	if extra == 0 {
		t.Fatal("no case produced a same-start subset match: the tie generator no longer covers item 4")
	}
}

// TestTiedTimestampsNeedMaximalityFilter is the pinned item-4 case: two
// tied Q events at time 0, and the lineage that starts at the second
// binds a proper subset of the lineage that starts at the first.
func TestTiedTimestampsNeedMaximalityFilter(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("a"), pattern.Plus("b")).
		Set(pattern.Var("z")).
		WhereConst("a", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("Q")).
		WhereConst("z", "L", pattern.Eq, event.String("Z")).
		Within(100).MustBuild()
	var evs []event.Event
	for i, l := range []string{"Q", "Q", "P", "Z"} {
		evs = append(evs, event.Event{Seq: i, Time: event.Time(max(0, i-1)),
			Attrs: []event.Value{event.Int(1), event.String(l), event.Float(0)}})
	}
	c := oracleCase{p: p, evs: evs}
	if want := definition2(p, oracleSchema, evs); fmt.Sprint(want) != "[{b+/e0, b+/e1, a+/e2, z/e3}]" {
		t.Fatalf("oracle = %v", want)
	}
	if n := checkTied(t, "pinned", c); n != 1 {
		t.Fatalf("Query.Match returned %d same-start subset matches, want 1 ({b+/e1, a+/e2, z/e3})", n)
	}
}

// checkTied runs Query.Match on a tied case and returns how many of
// its matches are the same-start proper subsets the oracle drops.
func checkTied(t *testing.T, name string, c oracleCase) int {
	t.Helper()
	q := ses.MustCompile(c.p, oracleSchema)
	want := definition2(c.p, oracleSchema, c.evs)
	extra := 0
	for _, filter := range []bool{false, true} {
		ms, _, err := q.Match(relationOf(t, c.evs), ses.WithFilter(filter))
		if err != nil {
			t.Fatal(err)
		}
		if got := rendered(ses.FilterMaximal(ms)); !sameMultiset(got, want) {
			t.Fatalf("%s: FilterMaximal(Query.Match(filter=%v)) disagrees with the oracle\n%s\n got %v\nwant %v", name, filter, c, got, want)
		}
		extra = 0
		for _, m := range rendered(ms) {
			if slices.Contains(want, m) {
				continue
			}
			if !slices.ContainsFunc(want, func(o string) bool { return startOf(o, c.evs) == startOf(m, c.evs) && properSubsetOf(m, o) }) {
				t.Fatalf("%s: Query.Match(filter=%v) returned %s, which is neither an oracle match nor a same-start subset of one\n%s", name, filter, m, c)
			}
			extra++
		}
	}
	return extra
}

// pairsOf splits a rendered match into its "v/eSEQ" pairs.
func pairsOf(m string) []string { return strings.Split(strings.Trim(m, "{}"), ", ") }

// properSubsetOf reports whether rendered match a binds a proper subset
// of b's (variable, event) pairs.
func properSubsetOf(a, b string) bool {
	pa, pb := pairsOf(a), pairsOf(b)
	if len(pa) >= len(pb) {
		return false
	}
	for _, x := range pa {
		if !slices.Contains(pb, x) {
			return false
		}
	}
	return true
}

// timesOf returns the times of a rendered match's bindings in stream
// order, looked up in evs, whose Seq is the position.
func timesOf(m string, evs []event.Event) []event.Time {
	var ts []event.Time
	for _, p := range pairsOf(m) {
		seq, _ := strconv.Atoi(p[strings.LastIndex(p, "/e")+2:])
		ts = append(ts, evs[seq].Time)
	}
	return ts
}

// startOf is the time of a rendered match's first binding.
func startOf(m string, evs []event.Event) event.Time { return timesOf(m, evs)[0] }

// TestOracleOptionalVariables names the divergences of optional
// variables (ROADMAP item 6). Query.Match expands v? and v* into one
// plain pattern per subset of included optional variables, evaluates
// each, and drops a match that is a proper subset of another variant's
// match, whatever their start times. First, Query.Match equals exactly
// that reading computed by the oracle per variant, and every oracle
// match of the pattern is an oracle match of its own variant. Then
// every difference from the oracle on the pattern is one of two named
// cases:
//   - earlier-start superset: the oracle keeps a match that Query.Match
//     drops because another variant's match binds a proper superset of
//     it and starts earlier (an optional variable bound before the
//     first event); the oracle's condition 5 compares same-start
//     matches only;
//   - per-variant condition 4: Query.Match returns a match of one
//     variant that the pattern's condition 4 rejects, because the
//     variant requires an included optional variable or cannot bind an
//     excluded one, and so skips an event the pattern must take.
func TestOracleOptionalVariables(t *testing.T) {
	dropped, added := 0, 0
	for trial := 0; trial < oracleCases(); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := randOracleCase(rng, caseKind{optional: true})
		ms, _, err := ses.MustCompile(c.p, oracleSchema).Match(relationOf(t, c.evs))
		if err != nil {
			t.Fatal(err)
		}
		got := rendered(ms)
		want := definition2(c.p, oracleSchema, c.evs)

		variants, err := pattern.ExpandOptionals(c.p)
		if err != nil {
			t.Fatal(err)
		}
		perVariant := make([][]string, len(variants))
		for i, v := range variants {
			perVariant[i] = definition2(v, oracleSchema, c.evs)
		}
		// supersets lists the matches of other variants than i that bind
		// a proper superset of m.
		supersets := func(i int, m string) []string {
			var out []string
			for j, ms := range perVariant {
				for _, o := range ms {
					if j != i && properSubsetOf(m, o) {
						out = append(out, o)
					}
				}
			}
			return out
		}
		var union []string
		for i, ms := range perVariant {
			for _, m := range ms {
				if len(supersets(i, m)) == 0 {
					union = append(union, m)
				}
			}
		}
		if !sameMultiset(got, union) {
			t.Fatalf("trial %d: Query.Match is not the per-variant oracle less cross-variant subsets\n%s\n got %v\nwant %v", trial, c, got, union)
		}

		for _, m := range want {
			i := slices.IndexFunc(perVariant, func(ms []string) bool { return slices.Contains(ms, m) })
			if i < 0 {
				t.Fatalf("trial %d: oracle match %s is no variant's match\n%s", trial, m, c)
			}
			if slices.Contains(got, m) {
				continue
			}
			if !slices.ContainsFunc(supersets(i, m), func(o string) bool { return startOf(o, c.evs) < startOf(m, c.evs) }) {
				t.Fatalf("trial %d: Query.Match drops oracle match %s, and no other variant's match starting earlier binds a superset\n%s", trial, m, c)
			}
			dropped++
		}
		for _, m := range got {
			if !slices.Contains(want, m) {
				added++ // a variant's match (checked above) the pattern rejects
			}
		}
	}
	t.Logf("earlier-start superset: %d, per-variant condition 4: %d, over %d cases", dropped, added, oracleCases())
	if dropped == 0 || added == 0 {
		t.Fatal("a named optional-variable case no longer occurs: the generator no longer covers item 6")
	}
}
