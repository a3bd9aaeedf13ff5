package ses_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/chemo"
	"repro/internal/event"
	"repro/internal/server"
)

// mergeKey is a match's place in the order a fleet merge assumes of
// each node's stream (internal/cluster/merge.go): its window start
// (First), then its smallest bound Seq.
type mergeKey struct {
	first event.Time
	seq   int
}

func keyOf(m ses.Match) mergeKey { return mergeKey{m.First, m.Events()[0].Seq} }

// firstDisorder returns the index of the first key smaller than the one
// before it, or -1.
func firstDisorder(keys []mergeKey) int {
	for i := 1; i < len(keys); i++ {
		if p := keys[i-1]; keys[i].first < p.first || keys[i].first == p.first && keys[i].seq < p.seq {
			return i
		}
	}
	return -1
}

// groupQuery is PERMUTE(c, d, p+) THEN (b) with every variable of the
// first set matching 'P': on overlapping patients its classes hold
// many instances each, whose matches a step emits together.
const groupQuery = `PATTERN PERMUTE(c, d, p+) THEN (b)
WHERE c.L = 'P' AND d.L = 'P' AND p.L = 'P' AND b.L = 'B'
WITHIN 264h`

// overlappingPatients renders patients following the six-cycle chemo
// protocol, each starting 756 h after the previous one, so a 264 h
// window holds several patients' medication events. Seq is the
// position in the stream, as a server stamps it.
func overlappingPatients(t *testing.T, patients int) (*event.Schema, []event.Event) {
	t.Helper()
	var schema *event.Schema
	var evs []event.Event
	for i := 0; i < patients; i++ {
		rel, err := chemo.Generate(chemo.Config{Patients: 1, CyclesPerPatient: 6, CycleGapDays: 21,
			NoisePerDay: 0.5, NoiseTypes: 20, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		schema = rel.Schema()
		for _, e := range rel.Events() {
			e.Time += event.Time(i*756) * event.Time(event.Hour)
			e.Attrs[0] = event.Int(int64(i + 1))
			evs = append(evs, e)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	for i := range evs {
		evs[i].Seq = i
	}
	return schema, evs
}

// TestEmissionInMergeKeyOrder: an unkeyed Runner emits its matches in
// non-decreasing (First, min bound Seq), within a step and across
// steps, Flush included; so does one server node's /matches stream.
// The fleet merge and a per-key bound on emission delay rest on this
// order. Checked on the oracle's random cases, with and without tied
// timestamps, and on the group pattern over overlapping patients.
func TestEmissionInMergeKeyOrder(t *testing.T) {
	stepped := func(q *ses.Query, evs []event.Event, filter bool, block int) []mergeKey {
		t.Helper()
		r := q.Runner(ses.WithFilter(filter))
		var keys []mergeKey
		for lo := 0; lo < len(evs); lo += block {
			ms, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+block, len(evs))]})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				keys = append(keys, keyOf(m))
			}
		}
		for _, m := range r.Flush() {
			keys = append(keys, keyOf(m))
		}
		return keys
	}

	matched := 0
	for trial := 0; trial < oracleCases(); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := randOracleCase(rng, caseKind{ties: trial%2 == 1})
		q := ses.MustCompile(c.p, oracleSchema)
		keys := stepped(q, c.evs, rng.Intn(2) == 0, 1+rng.Intn(len(c.evs)))
		if i := firstDisorder(keys); i >= 0 {
			t.Fatalf("trial %d: match %d of %d emitted at %v after %v\n%s", trial, i, len(keys), keys[i], keys[i-1], c)
		}
		matched += len(keys)
	}
	if matched < oracleCases() {
		t.Fatalf("%d matches over %d cases: the order is barely exercised", matched, oracleCases())
	}

	schema, evs := overlappingPatients(t, 12)
	q, err := ses.Compile(groupQuery, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{1, 64} {
		keys := stepped(q, evs, block == 64, block)
		if i := firstDisorder(keys); len(keys) < 1000 || i >= 0 {
			t.Fatalf("group stream in blocks of %d: %d matches, first out of order at %d", block, len(keys), i)
		}
	}

	s, err := server.New(server.Config{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddQuery(server.QuerySpec{ID: "g", Query: groupQuery}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(evs); lo += 64 {
		if _, err := s.Ingest(evs[lo:min(lo+64, len(evs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/queries/g/matches", nil))
	var keys []mergeKey
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		var m struct {
			First    event.Time `json:"first"`
			Bindings []struct {
				Events []struct {
					Seq int `json:"seq"`
				} `json:"events"`
			} `json:"bindings"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("served line %q: %v", line, err)
		}
		k := mergeKey{first: m.First, seq: -1}
		for _, b := range m.Bindings {
			for _, e := range b.Events {
				if k.seq < 0 || e.Seq < k.seq {
					k.seq = e.Seq
				}
			}
		}
		keys = append(keys, k)
	}
	if i := firstDisorder(keys); len(keys) < 1000 || i >= 0 {
		t.Fatalf("server node: %d served lines, first out of order at %d", len(keys), i)
	}
}
