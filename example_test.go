package ses_test

import (
	"context"
	"fmt"
	"os"

	"repro"
)

// exampleSchema is a minimal schema used by the examples: an entity
// key and an event type.
func exampleSchema() *ses.Schema {
	return ses.MustSchema(
		ses.Field{Name: "ID", Type: ses.TypeInt},
		ses.Field{Name: "L", Type: ses.TypeString},
	)
}

// ExampleCompile shows the core flow: build a relation, compile a
// query in the textual pattern language and match.
func ExampleCompile() {
	schema := exampleSchema()
	rel := ses.NewRelation(schema)
	for i, l := range []string{"C", "P", "D", "P", "B"} {
		rel.MustAppend(ses.Time(i*3600), ses.Int(1), ses.String(l))
	}

	q, err := ses.Compile(`
		PATTERN PERMUTE(c, p+, d) THEN (b)
		WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B'
		WITHIN 264h`, schema)
	if err != nil {
		fmt.Println(err)
		return
	}
	matches, _, err := q.Match(rel)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, m := range matches {
		fmt.Println(m)
	}
	// Output:
	// {c/e0, p+/e1, d/e2, p+/e3, b/e4}
}

// ExampleNewPattern builds the same pattern programmatically.
func ExampleNewPattern() {
	p, err := ses.NewPattern().
		Set(ses.Var("c"), ses.Plus("p"), ses.Var("d")).
		Set(ses.Var("b")).
		WhereConst("c", "L", ses.Eq, ses.String("C")).
		Within(264 * ses.Hour).
		Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(p.Sets[0][1], p.Window)
	// Output:
	// p+ 11d
}

// ExampleAnalyze classifies a pattern per the paper's complexity
// cases (Section 4.4).
func ExampleAnalyze() {
	p := ses.MustParseQuery(`
		PATTERN (x, y) WHERE x.L = 'A' AND y.L = 'B' WITHIN 1h`)
	a := ses.Analyze(p)
	fmt.Println(a.Deterministic)
	fmt.Println(a.Sets[0].Bound)
	// Output:
	// true
	// O(1)
}

// ExampleQuery_Runner evaluates incrementally, one event at a time.
func ExampleQuery_Runner() {
	schema := exampleSchema()
	q := ses.MustCompile(`PATTERN (a) THEN (b)
		WHERE a.L = 'A' AND b.L = 'B' WITHIN 10s`, schema)
	r := q.Runner()
	for i, l := range []string{"A", "B"} {
		e := ses.Event{Seq: i, Time: ses.Time(i), Attrs: []ses.Value{ses.Int(1), ses.String(l)}}
		if _, err := r.Step(&e); err != nil {
			fmt.Println(err)
			return
		}
	}
	for _, m := range r.Flush() {
		fmt.Println(m)
	}
	// Output:
	// {a/e0, b/e1}
}

// ExampleQuery_Supervise evaluates a channel of events; matches surface
// as instances complete.
func ExampleQuery_Supervise() {
	schema := exampleSchema()
	q := ses.MustCompile(`PATTERN (a) THEN (b)
		WHERE a.L = 'A' AND b.L = 'B' WITHIN 10s`, schema)
	in := make(chan ses.Event, 4)
	in <- ses.Event{Time: 0, Attrs: []ses.Value{ses.Int(1), ses.String("A")}}
	in <- ses.Event{Time: 1, Attrs: []ses.Value{ses.Int(1), ses.String("B")}}
	close(in)
	out, sup, err := q.Supervise(context.Background(), in, ses.SuperviseConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for m := range out {
		fmt.Println(m)
	}
	if err := sup.Err(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// {a/e0, b/e1}
}

// ExampleQuery_MatchPartitioned evaluates a query per entity — the
// paper's "for each patient" reading.
func ExampleQuery_MatchPartitioned() {
	schema := exampleSchema()
	rel := ses.NewRelation(schema)
	// Two interleaved patients.
	rel.MustAppend(0, ses.Int(1), ses.String("A"))
	rel.MustAppend(1, ses.Int(2), ses.String("A"))
	rel.MustAppend(2, ses.Int(1), ses.String("B"))
	rel.MustAppend(3, ses.Int(2), ses.String("B"))
	q := ses.MustCompile(`PATTERN (a) THEN (b)
		WHERE a.L = 'A' AND b.L = 'B' WITHIN 1h`, schema)
	matches, _, err := q.MatchPartitioned(rel, "ID")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(matches))
	// Output:
	// 2
}

// ExampleNewReorderer restores timestamp order in a disordered feed
// within a lateness bound.
func ExampleNewReorderer() {
	ro := ses.NewReorderer(5)
	mk := func(t ses.Time) ses.Event {
		return ses.Event{Time: t, Attrs: []ses.Value{ses.Int(1), ses.String("A")}}
	}
	var released []ses.Event
	for _, t := range []ses.Time{10, 8, 12, 20} {
		released = append(released, ro.Push(mk(t))...)
	}
	released = append(released, ro.Drain()...)
	for _, e := range released {
		fmt.Print(e.Time, " ")
	}
	fmt.Println()
	// Output:
	// 8 10 12 20
}

// ExampleQuery_WriteDOT renders the compiled automaton for Graphviz.
func ExampleQuery_WriteDOT() {
	q := ses.MustCompile(`PATTERN (a) WHERE a.L = 'A' WITHIN 1h`, exampleSchema())
	_ = q.WriteDOT(os.Stdout, "tiny")
	// Output:
	// digraph "tiny" {
	//   rankdir=LR;
	//   node [shape=circle, fontsize=11];
	//   __start [shape=point, style=invis];
	//   q0 [label="∅", shape=circle];
	//   q1 [label="a", shape=doublecircle];
	//   __start -> q0;
	//   q0 -> q1 [label="a, {a.L = \"A\"}"];
	// }
}
