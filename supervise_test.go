package ses_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/chemo"
)

// smallD1 returns dataset D1 of the small chemotherapy profile (4,313
// events) and the paper's Q1 compiled over its schema.
func smallD1(t testing.TB) (*ses.Relation, *ses.Query) {
	t.Helper()
	ds, err := chemo.Datasets(chemo.Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds[0], ses.MustCompile(q1Text, ds[0].Schema())
}

// feed sends the relation's events on a fresh channel and closes it.
func feed(rel *ses.Relation) <-chan ses.Event {
	in := make(chan ses.Event)
	go func() {
		defer close(in)
		for i := 0; i < rel.Len(); i++ {
			in <- *rel.Event(i)
		}
	}()
	return in
}

// TestSuperviseIsStepLoop: over an in-order stream, Query.Supervise
// emits exactly what a Step loop followed by Flush returns, byte for
// byte and in the same order, keyed and unkeyed, with the filter on and
// off, whether or not the supervisor can recover.
func TestSuperviseIsStepLoop(t *testing.T) {
	rel, q := smallD1(t)
	render := func(t *testing.T, lines *strings.Builder, ms ...ses.Match) {
		for _, m := range ms {
			b, err := ses.MatchJSON(m, rel.Schema())
			if err != nil {
				t.Fatal(err)
			}
			lines.Write(b)
			lines.WriteByte('\n')
		}
	}
	for _, key := range []string{"", "ID"} {
		for _, filter := range []bool{false, true} {
			opts := []ses.Option{ses.WithFilter(filter)}
			if key != "" {
				opts = append(opts, ses.WithPartitionKey(key))
			}
			t.Run(fmt.Sprintf("key=%q/filter=%v", key, filter), func(t *testing.T) {
				var want strings.Builder
				r := q.Runner(opts...)
				for i := 0; i < rel.Len(); i++ {
					ms, err := r.Step(rel.Event(i))
					if err != nil {
						t.Fatal(err)
					}
					render(t, &want, ms...)
				}
				render(t, &want, r.Flush()...)
				if want.Len() == 0 {
					t.Fatal("the step loop found no match")
				}
				for _, cfg := range []ses.SuperviseConfig{{}, {MaxRestarts: -1}} {
					out, sup, err := q.Supervise(context.Background(), feed(rel), cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					var got strings.Builder
					for m := range out {
						render(t, &got, m)
					}
					if err := sup.Err(); err != nil {
						t.Fatal(err)
					}
					if got.String() != want.String() {
						t.Errorf("MaxRestarts %d: supervised lines differ from the step loop's:\n%s\nwant:\n%s",
							cfg.MaxRestarts, got.String(), want.String())
					}
					if sup.Metrics() != r.Metrics() {
						t.Errorf("MaxRestarts %d: metrics %+v, step loop %+v", cfg.MaxRestarts, sup.Metrics(), r.Metrics())
					}
				}
			})
		}
	}
}
