package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/server"
)

// routingQueryPool is the spec menu the identity tests draw from:
// routable queries over different label keys and WITHIN windows (tight
// windows expire instances between routed events), a type-agnostic
// query that must land in the catch-all bucket, a reorder-slack query
// (catch-all by rule), a keyed query and an identical-automaton
// duplicate.
func routingQueryPool() []server.QuerySpec {
	q := func(id, text string, mut func(*server.QuerySpec)) server.QuerySpec {
		s := server.QuerySpec{ID: id, Query: text}
		if mut != nil {
			mut(&s)
		}
		return s
	}
	cdb := `
PATTERN PERMUTE(c, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B'
  AND c.ID = d.ID AND d.ID = b.ID
WITHIN 264h`
	return []server.QuerySpec{
		q("pool-cdb", cdb, nil),
		q("pool-cdb-tight", strings.Replace(cdb, "264h", "24h", 1), nil),
		q("pool-pb", `
PATTERN PERMUTE(p+) THEN (b)
WHERE p.L = 'P' AND b.L = 'B' AND p.ID = b.ID
WITHIN 120h`, nil),
		q("pool-vr", `
PATTERN PERMUTE(v) THEN (r)
WHERE v.L = 'V' AND r.L = 'R' AND v.ID = r.ID
WITHIN 48h`, nil),
		// x has no equality condition: the automaton is type-agnostic
		// and the query must be served from the catch-all bucket.
		q("pool-any", `
PATTERN PERMUTE(x) THEN (b)
WHERE b.L = 'B' AND x.ID = b.ID
WITHIN 72h`, nil),
		// Reorder slack forces catch-all: lateness semantics must see
		// the full stream.
		q("pool-slack", `
PATTERN PERMUTE(c) THEN (d)
WHERE c.L = 'C' AND d.L = 'D' AND c.ID = d.ID
WITHIN 96h`, func(s *server.QuerySpec) { s.Slack = int64(3 * time.Hour / time.Second) }),
		q("pool-keyed", `
PATTERN PERMUTE(c) THEN (b)
WHERE c.L = 'C' AND b.L = 'B' AND c.ID = b.ID
WITHIN 264h`, func(s *server.QuerySpec) { s.Key = "ID" }),
		// Byte-identical text to pool-cdb: shares its compiled automaton.
		q("pool-cdb-copy", cdb, nil),
	}
}

// ingestInBatches feeds the stream to the server in the given batch
// sizes (cycled), mirroring how HTTP batches arrive.
func ingestInBatches(t *testing.T, s *server.Server, events []event.Event, sizes []int) {
	t.Helper()
	for i, k := 0, 0; i < len(events); k++ {
		n := sizes[k%len(sizes)]
		if i+n > len(events) {
			n = len(events) - i
		}
		if _, err := s.Ingest(events[i : i+n]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
		i += n
	}
}

// TestRoutingByteIdentityRandomMixes is the routing A/B property test:
// for random subsets of the query pool and random batch shapes over a
// time-ordered stream, a routed server and a full-fan-out server
// (BroadcastForTest) must produce byte-identical match logs for every
// query — same matches, same order, same sequence numbers.
func TestRoutingByteIdentityRandomMixes(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	pool := routingQueryPool()
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			// Random non-empty subset of the pool, in random order.
			perm := rng.Perm(len(pool))
			n := 1 + rng.Intn(len(pool))
			specs := make([]server.QuerySpec, 0, n)
			for _, pi := range perm[:n] {
				specs = append(specs, pool[pi])
			}
			sizes := []int{1 + rng.Intn(7), 1 + rng.Intn(31), 1 + rng.Intn(200)}

			run := func(disable bool) map[string][]string {
				s, err := server.New(server.Config{
					Schema:   rel.Schema(),
					Registry: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if disable {
					s.BroadcastForTest()
				}
				for _, spec := range specs {
					if _, err := s.AddQuery(spec); err != nil {
						t.Fatalf("AddQuery(%s): %v", spec.ID, err)
					}
				}
				ingestInBatches(t, s, rel.Events(), sizes)
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				out := make(map[string][]string, len(specs))
				for _, spec := range specs {
					out[spec.ID] = infoLines(t, s, spec.ID, 0)
				}
				return out
			}

			routed, full := run(false), run(true)
			for _, spec := range specs {
				r, f := routed[spec.ID], full[spec.ID]
				if len(r) != len(f) {
					t.Fatalf("query %s: routed %d matches, full fan-out %d", spec.ID, len(r), len(f))
				}
				for i := range f {
					if r[i] != f[i] {
						t.Errorf("query %s match %d:\nrouted: %s\nfull:   %s", spec.ID, i, r[i], f[i])
					}
				}
			}
		})
	}
}

// TestRoutingConcurrentChurn exercises the RCU snapshot under fire:
// ingest runs concurrently with query registration and removal. The
// stable queries registered before the stream must still be
// byte-identical to a full fan-out server fed the same batches; the
// churning registrations only have to keep the server consistent
// (run with -race to check the snapshot handoff).
func TestRoutingConcurrentChurn(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	pool := routingQueryPool()
	stable := pool[:4]

	run := func(disable bool, churn bool) map[string][]string {
		s, err := server.New(server.Config{Schema: rel.Schema()})
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			s.BroadcastForTest()
		}
		for _, spec := range stable {
			if _, err := s.AddQuery(spec); err != nil {
				t.Fatalf("AddQuery(%s): %v", spec.ID, err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if churn {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					spec := pool[4+i%(len(pool)-4)]
					spec.ID = fmt.Sprintf("churn-%d", i)
					if _, err := s.AddQuery(spec); err != nil {
						t.Errorf("churn add: %v", err)
						return
					}
					if err := s.RemoveQuery(spec.ID); err != nil {
						t.Errorf("churn remove: %v", err)
						return
					}
				}
			}()
		}
		ingestInBatches(t, s, rel.Events(), []int{3, 17, 64})
		close(stop)
		wg.Wait()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string, len(stable))
		for _, spec := range stable {
			out[spec.ID] = infoLines(t, s, spec.ID, 0)
		}
		return out
	}

	routed, full := run(false, true), run(true, false)
	for _, spec := range stable {
		r, f := routed[spec.ID], full[spec.ID]
		if len(r) != len(f) {
			t.Fatalf("query %s: routed-with-churn %d matches, full fan-out %d", spec.ID, len(r), len(f))
		}
		for i := range f {
			if r[i] != f[i] {
				t.Errorf("query %s match %d:\nrouted: %s\nfull:   %s", spec.ID, i, r[i], f[i])
			}
		}
	}
}

// TestRoutingCrashReplayIdentity kills a routed server mid-stream and
// checks that WAL replay plus routed live delivery still reproduces
// the full-fan-out match logs: instances rebuilt by replay must see
// the same live events a full-fan-out server delivers to them.
func TestRoutingCrashReplayIdentity(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	half := rel.Len() / 2
	specs := []server.QuerySpec{
		routingQueryPool()[0], // routable, wide window
		routingQueryPool()[1], // routable, tight window
		routingQueryPool()[4], // catch-all
	}

	run := func(disable bool) map[string][]string {
		cfg := server.Config{
			Schema:        rel.Schema(),
			CheckpointDir: t.TempDir(),
			WALDir:        t.TempDir(),
			WALFsync:      "never",
		}
		s1, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			s1.BroadcastForTest()
		}
		for _, spec := range specs {
			if _, err := s1.AddQuery(spec); err != nil {
				t.Fatalf("AddQuery(%s): %v", spec.ID, err)
			}
		}
		if _, err := s1.Ingest(rel.Events()[:half]); err != nil {
			t.Fatal(err)
		}
		// Let the pipelines settle so the WAL holds the full prefix,
		// then crash without draining.
		deadline := time.Now().Add(15 * time.Second)
		for {
			depth := 0
			for _, spec := range specs {
				info, err := s1.Query(spec.ID)
				if err != nil {
					t.Fatal(err)
				}
				depth += info.QueueDepth
			}
			if depth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("pipelines never settled before the crash")
			}
			time.Sleep(10 * time.Millisecond)
		}
		s1.Close() // crash

		s2, err := server.New(cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if disable {
			s2.BroadcastForTest()
		}
		if _, err := s2.Ingest(rel.Events()[half:]); err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			waitLive(t, s2, spec.ID)
		}
		if err := s2.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string, len(specs))
		for _, spec := range specs {
			out[spec.ID] = infoLines(t, s2, spec.ID, 0)
		}
		return out
	}

	routed, full := run(false), run(true)
	for _, spec := range specs {
		r, f := routed[spec.ID], full[spec.ID]
		if len(r) != len(f) {
			t.Fatalf("query %s: routed %d matches after crash replay, full fan-out %d", spec.ID, len(r), len(f))
		}
		for i := range f {
			if r[i] != f[i] {
				t.Errorf("query %s match %d:\nrouted: %s\nfull:   %s", spec.ID, i, r[i], f[i])
			}
		}
	}
}

// TestRoutingMetricsExposed checks the ses_route_* series: the index
// counts keys of routed queries, catch-all population reflects the
// type-agnostic and slack registrations, and skipped deliveries
// accumulate once a routed query starts declining events.
func TestRoutingMetricsExposed(t *testing.T) {
	rel := chemo.MustGenerate(chemo.Tiny())
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Schema: rel.Schema(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pool := routingQueryPool()
	for _, spec := range []server.QuerySpec{pool[0], pool[4], pool[5]} {
		if _, err := s.AddQuery(spec); err != nil {
			t.Fatalf("AddQuery(%s): %v", spec.ID, err)
		}
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"ses_route_index_size 3",       // pool-cdb keys: (L,C), (L,D), (L,B)
		"ses_route_catchall_queries 2", // pool-any + pool-slack
		"ses_route_events_routed_total",
		"ses_route_events_skipped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q:\n%s", want, text)
		}
	}
}
