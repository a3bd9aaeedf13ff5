package bench

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/paperdata"
	"repro/internal/server"
)

// ServerQueryTexts are the queries of the multi-query serving
// benchmark: the paper's Q1 plus two overlapping chemotherapy
// patterns, so the three automata share most of the event stream but
// build different instance sets.
var ServerQueryTexts = []string{
	paperdata.QueryQ1Text,
	`PATTERN PERMUTE(c, d, p) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
WITHIN 264h`,
	`PATTERN PERMUTE(c, d) THEN (b)
WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B'
WITHIN 264h`,
}

// compileText compiles one query text for the dataset's schema (the
// benchmark queries have no optional variables, so exactly one
// automaton results).
func compileText(text string, schema *event.Schema) (*automaton.Automaton, error) {
	a, _, err := engine.CompileQuery(text, schema)
	return a, err
}

// RunServerShared evaluates the benchmark queries against the dataset
// through the serving layer: one server, one shared ingest pass that
// routes every event to the registered queries it can affect, then a
// drain that flushes the windows. It returns the total match count
// across the queries.
func RunServerShared(d Dataset) (int, error) {
	return RunServerSharedN(d, len(ServerQueryTexts), nil)
}

// serverTile is how many time-shifted copies of the dataset the
// serving benchmarks ingest. A server registers its queries once and
// then serves a long stream, so the interesting number is the
// steady-state per-event cost; tiling stretches the ingest phase until
// the per-registration fixed costs (pipeline goroutines, channels,
// automaton lookups) amortize the way they do over a server's
// lifetime, instead of dominating a single-pass measurement.
const serverTile = 4

// tiledRels memoizes the tiled relation per dataset: the copies are
// identical across benchmark iterations, so the concatenation is built
// once and the iterations measure serving, not stream construction.
var tiledRels sync.Map // *event.Relation -> *event.Relation

// tiledRelation returns serverTile time-shifted copies of the
// dataset's relation, each copy displaced by more than the benchmark
// queries' largest WITHIN window so no match spans a copy boundary:
// every copy contributes exactly the single-pass match set, times stay
// monotone, and the total count remains a deterministic fingerprint.
func tiledRelation(d Dataset) (*event.Relation, error) {
	if r, ok := tiledRels.Load(d.Rel); ok {
		return r.(*event.Relation), nil
	}
	var within event.Duration
	for _, text := range ServerQueryTexts {
		a, err := compileTextCached(text, d.Rel.Schema())
		if err != nil {
			return nil, err
		}
		if a.Within > within {
			within = a.Within
		}
	}
	evs := d.Rel.Events()
	if len(evs) == 0 {
		return d.Rel, nil
	}
	span := evs[len(evs)-1].Time - evs[0].Time
	stride := event.Duration(span) + within + 1
	tiled := event.NewRelation(d.Rel.Schema())
	for i := 0; i < serverTile; i++ {
		shift := event.Time(int64(i) * int64(stride))
		for _, e := range evs {
			if err := tiled.Append(e.Time+shift, e.Attrs...); err != nil {
				return nil, err
			}
		}
	}
	r, _ := tiledRels.LoadOrStore(d.Rel, tiled)
	return r.(*event.Relation), nil
}

// sparseQueryText builds the i-th synthetic registration of the
// scaling benchmark: a routable two-variable pattern whose label
// constants never occur in the chemotherapy datasets, so the routing
// index can prove the query irrelevant to every ingested event.
func sparseQueryText(i int) string {
	return fmt.Sprintf(`PATTERN PERMUTE(a) THEN (z)
WHERE a.L = 'X%d' AND z.L = 'Y%d' AND a.ID = z.ID
WITHIN 264h`, i, i)
}

// RunServerSharedN is RunServerShared scaled to n registered queries:
// the benchmark texts plus n-len(ServerQueryTexts) sparse-overlap
// queries (see sparseQueryText) that match nothing in the dataset —
// the many-tenants shape where most registrations are irrelevant to
// most events. The ingested stream is the tiled relation (see
// tiledRelation), so the measurement reflects steady-state serving. A
// non-nil cache amortizes query compilation across repeated runs (the
// servers themselves are rebuilt every run).
func RunServerSharedN(d Dataset, n int, cache *server.AutomatonCache) (int, error) {
	rel, err := tiledRelation(d)
	if err != nil {
		return 0, err
	}
	s, err := server.New(server.Config{Schema: d.Rel.Schema(), Automata: cache})
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		spec := server.QuerySpec{ID: fmt.Sprintf("q%d", i+1)}
		if i < len(ServerQueryTexts) {
			spec.Query, spec.Filter = ServerQueryTexts[i], true
		} else {
			spec.Query = sparseQueryText(i)
		}
		if _, err := s.AddQuery(spec); err != nil {
			return 0, err
		}
	}
	if _, err := s.Ingest(rel.Events()); err != nil {
		return 0, err
	}
	if err := s.Drain(context.Background()); err != nil {
		return 0, err
	}
	total := 0
	for _, info := range s.Queries() {
		if info.Err != "" {
			return 0, fmt.Errorf("query %s: %s", info.ID, info.Err)
		}
		total += int(info.Matches)
	}
	return total, nil
}

// indepAutomata memoizes standalone compilation across benchmark
// iterations, the counterpart of the server-side AutomatonCache: both
// sides of the shared-vs-independent comparison then measure
// evaluation, not query parsing.
var indepAutomata sync.Map

// compileTextCached is compileText through the iteration-spanning memo.
func compileTextCached(text string, schema *event.Schema) (*automaton.Automaton, error) {
	type key struct {
		schema *event.Schema
		text   string
	}
	k := key{schema, text}
	if v, ok := indepAutomata.Load(k); ok {
		return v.(*automaton.Automaton), nil
	}
	a, err := compileText(text, schema)
	if err != nil {
		return nil, err
	}
	v, _ := indepAutomata.LoadOrStore(k, a)
	return v.(*automaton.Automaton), nil
}

// RunServerIndependent evaluates the same queries as standalone
// engine runs, one full pass over the tiled relation per query — the
// baseline the shared-ingest path is compared against (both sides
// consume the identical stream).
func RunServerIndependent(d Dataset) (int, error) {
	rel, err := tiledRelation(d)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, text := range ServerQueryTexts {
		a, err := compileTextCached(text, d.Rel.Schema())
		if err != nil {
			return 0, err
		}
		ms, _, err := engine.RunOn(engine.New(a, engine.WithFilter(true)), rel)
		if err != nil {
			return 0, err
		}
		total += len(ms)
	}
	return total, nil
}
