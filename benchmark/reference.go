package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	ses "repro"
	"repro/internal/event"
	"repro/internal/server"
)

// pacedBatch and satBatch are the events per POST in the open-loop and
// the closed-loop phase.
const (
	pacedBatch = 64
	satBatch   = 256
)

// reference is what the library says one pass must produce.
type reference struct {
	// lines is the followed query's output per pass: match lines, or
	// folds for the aggregate workload.
	lines int
	// sha is the digest of the followed query's pass 0 match lines, each
	// followed by a newline (unused for the aggregate workload).
	sha [sha256.Size]byte
	// bytes is the size of those lines.
	bytes int64
	// cum[k] is how many of them are final once the first (k+1)*pacedBatch
	// events have been evaluated, before any end-of-input flush.
	cum []int
	// perQuery is every registered query's match count per pass.
	perQuery []int64
	// aggCount and aggSum are the aggregate workload's values per pass.
	aggCount, aggSum float64
	// matches and engine counters of the followed query, for the ledger.
	metrics ses.Metrics
}

// computeReference evaluates the registered queries over pass 0 with
// the library alone: ses.Query.Runner stepped over the same batches the
// paced phase posts, ses.MatchJSON for the expected lines.
func computeReference(w workload, s *stream) (*reference, error) {
	ref := &reference{perQuery: make([]int64, len(w.queries))}
	for qi, spec := range w.queries {
		q, err := ses.Compile(spec.Query, s.schema)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		if qi > 0 {
			r := q.Runner(ses.WithFilter(spec.Filter))
			if _, err := r.StepBlock(event.Block{Events: s.events}); err != nil {
				return nil, fmt.Errorf("query %s: %w", spec.ID, err)
			}
			r.Flush()
			ref.perQuery[qi] = r.Metrics().Matches
			continue
		}
		if err := ref.follow(q, spec, s); err != nil {
			return nil, fmt.Errorf("query %s: %w", spec.ID, err)
		}
		ref.perQuery[0] = int64(ref.lines)
	}
	return ref, nil
}

// follow computes the followed query's expected output.
func (ref *reference) follow(q *ses.Query, spec server.QuerySpec, s *stream) error {
	opts := []ses.Option{ses.WithFilter(spec.Filter)}
	var agg *ses.Aggregator
	if q.HasAggregate() {
		var err error
		if agg, err = q.NewAggregator(); err != nil {
			return err
		}
		opts = append(opts, ses.WithAggregation(agg), ses.WithAggregateOnly(true))
	}
	r := q.Runner(opts...)
	h := sha256.New()
	emit := func(ms []ses.Match) error {
		for _, m := range ms {
			line, err := ses.MatchJSON(m, s.schema)
			if err != nil {
				return err
			}
			h.Write(line)
			h.Write([]byte{'\n'})
			ref.bytes += int64(len(line)) + 1
			ref.lines++
		}
		return nil
	}
	n := len(s.events)
	ref.cum = make([]int, 0, (n+pacedBatch-1)/pacedBatch)
	for lo := 0; lo < n; lo += pacedBatch {
		ms, err := r.StepBlock(event.Block{Events: s.events[lo:min(lo+pacedBatch, n)]})
		if err != nil {
			return err
		}
		if err := emit(ms); err != nil {
			return err
		}
		if agg != nil {
			ref.cum = append(ref.cum, int(agg.Folds()))
		} else {
			ref.cum = append(ref.cum, ref.lines)
		}
	}
	if err := emit(r.Flush()); err != nil {
		return err
	}
	ref.metrics = r.Metrics()
	h.Sum(ref.sha[:0])
	if agg == nil {
		return nil
	}
	ref.lines = int(agg.Folds())
	doc, _, _ := agg.Stats(0)
	var err error
	ref.aggCount, ref.aggSum, err = parseStats(doc)
	return err
}

// parseStats extracts (count, sum) of the single global group from a
// stats document of the aggregate workload.
func parseStats(doc []byte) (count, sum float64, err error) {
	var d struct {
		Groups []struct {
			Values []float64 `json:"values"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, 0, fmt.Errorf("stats document: %w", err)
	}
	if len(d.Groups) == 0 {
		return 0, 0, nil
	}
	if len(d.Groups) != 1 || len(d.Groups[0].Values) != 2 {
		return 0, 0, fmt.Errorf("stats document: want one group of two values, got %s", doc)
	}
	return d.Groups[0].Values[0], d.Groups[0].Values[1], nil
}
