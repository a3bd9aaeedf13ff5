package engine

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

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
