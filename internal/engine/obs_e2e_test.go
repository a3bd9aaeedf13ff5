package engine

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// scrape fetches the Prometheus exposition from a running debug
// server.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	return string(body)
}

// TestShardedMetricsEndToEnd serves a keyed runner's registry over HTTP
// and scrapes /metrics mid-run and after the flush: every key's
// sub-runner counts into the runner's one set of series, so the
// exported counters agree with its merged Metrics and its Aggregator.
func TestShardedMetricsEndToEnd(t *testing.T) {
	a := compile(t, seqPattern(t, 10), simpleSchema())
	evs := randIdentityEvents(rand.New(rand.NewSource(5)), 400) // drifts L to a float now and then
	ag := NewAggregator(mustAggPlan(t, a, &pattern.AggSpec{Items: []pattern.AggItem{{Func: pattern.AggCount}}}))
	reg := obs.NewRegistry()
	r := New(a, WithPartitionKey("ID"), WithAggregation(ag), WithMetricsRegistry(reg), WithMetricLabels("query", "k"))
	srv, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	check := func(when string) {
		t.Helper()
		body := scrape(t, srv.Addr)
		for _, want := range []string{
			fmt.Sprintf(`ses_cond_type_mismatch_total{query="k"} %d`, r.Metrics().CondTypeMismatches),
			fmt.Sprintf(`ses_agg_folds_total{query="k"} %d`, ag.Folds()),
			"ses_go_goroutines", // runtime gauges ride along on the same endpoint
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s /metrics lacks %q", when, want)
			}
		}
	}
	if _, err := stepLines(r, evs[:len(evs)/2], 1); err != nil {
		t.Fatal(err)
	}
	check("mid-run")
	if _, err := keyedRun(r, evs[len(evs)/2:], 1); err != nil {
		t.Fatal(err)
	}
	check("final")
	if m := r.Metrics(); m.CondTypeMismatches == 0 || ag.Folds() == 0 || uint64(m.Matches) != ag.Folds() {
		t.Errorf("test data broken or fold count off: %d mismatches, %d matches, %d folds", m.CondTypeMismatches, m.Matches, ag.Folds())
	}
}

// TestSupervisorMetricsRegistry verifies the supervisor's counters and
// checkpoint-age gauge appear in a shared registry. (The resilience
// package has its own behavioral tests; this covers the engine-side
// registry plumbing contract used by SuperviseConfig.Registry.)
func TestSupervisorRegistryNamesReserved(t *testing.T) {
	// The supervisor's metric names must not collide with a runner's
	// when both share one registry.
	reg := obs.NewRegistry()
	a, rel := compileSharded(t)
	if _, _, err := RunOn(New(a, WithPartitionKey("ID"), WithMetricsRegistry(reg)), rel); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "ses_resilience_") {
		t.Error("runner registered resilience-prefixed series")
	}
}

// TestCondTypeMismatchCount pins mismatch accounting on a stream whose
// drifted comparisons are counted by hand. The pattern is ⟨{x},{y}⟩
// with x.L = 'A', y.L = 'B' AND y.V < 1.5, the filter is off, and the
// stream is A@0, B@1 (V a string), B@2 (V 1), A@3, B@4 (V a string),
// B@5 (V NaN), @6 (L a float), B@20 (V a string):
//   - B@1: the {x/e0} instance checks y.V < 1.5 on a string: 1.
//   - B@4: the {x/e3} instance does the same: 2.
//   - B@5: NaN is unordered, a plain miss and no mismatch.
//   - @6: the float L fails y.L = 'B' for {x/e3} and x.L = 'A' for the
//     start instance: 4. {x/e0, y/e2} is complete and has no transition.
//   - B@20: both instances have expired, and the start instance's
//     x.L = 'A' on "B" is an ordinary miss.
//
// Step and StepBlock count the same 4, in Metrics and in the exported
// counter, with the one match {x/e0, y/e2}.
func TestCondTypeMismatchCount(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x")).
		Set(pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("A")).
		WhereConst("y", "L", pattern.Eq, event.String("B")).
		WhereConst("y", "V", pattern.Lt, event.Float(1.5)).
		Within(10).MustBuild()
	a := compile(t, p, simpleSchema())
	drift := event.String("drift")
	specs := []struct {
		tm   event.Time
		l, v event.Value
	}{
		{0, event.String("A"), event.Float(0)},
		{1, event.String("B"), drift},
		{2, event.String("B"), event.Float(1)},
		{3, event.String("A"), event.Float(0)},
		{4, event.String("B"), drift},
		{5, event.String("B"), event.Float(math.NaN())},
		{6, event.Float(1.5), event.Float(0)},
		{20, event.String("B"), drift},
	}
	evs := make([]event.Event, len(specs))
	for i, s := range specs {
		evs[i] = event.Event{Seq: i, Time: s.tm, Attrs: []event.Value{event.Int(1), s.l, s.v}}
	}
	const want = 4
	for _, block := range []bool{false, true} {
		reg := obs.NewRegistry()
		r := New(a, WithMetricsRegistry(reg))
		var ms []Match
		if block {
			got, err := r.StepBlock(event.Block{Events: evs})
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, got...)
		} else {
			for i := range evs {
				got, err := r.Step(&evs[i])
				if err != nil {
					t.Fatal(err)
				}
				ms = append(ms, got...)
			}
		}
		ms = append(ms, r.Flush()...)
		if got := fmt.Sprint(matchStrings(ms)); got != "[{x/e0, y/e2}]" {
			t.Errorf("StepBlock=%v: matches %s, want [{x/e0, y/e2}]", block, got)
		}
		if got := r.Metrics().CondTypeMismatches; got != want {
			t.Errorf("StepBlock=%v: Metrics().CondTypeMismatches = %d, want %d", block, got, want)
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("ses_cond_type_mismatch_total %d\n", want); !strings.Contains(sb.String(), line) {
			t.Errorf("StepBlock=%v: /metrics lacks %q:\n%s", block, line, sb.String())
		}
	}
}
