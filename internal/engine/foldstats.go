package engine

import (
	"encoding/json"
	"fmt"
)

// This file implements distributed aggregation. A partition's fold
// state is its aggregator's snapshot section (snapAgg): every group's
// raw accumulators, including groups the HAVING filter excludes
// locally, because a group failing HAVING on one partition may pass
// once the partitions are merged. A cluster router gathers one section
// per partition and merges them with MergeFoldStats, which folds them
// into one Aggregator under the plan's fold algebra (sums add,
// mins/maxes compare, avg keeps its sum/count pair) and renders it
// with the aggregator's own HAVING filter and renderer — the same
// split between folding and read-time filtering a single node uses.

// FoldStats returns the aggregator's snapshot section — byte for byte
// the "agg" object of WriteSnapshot — for cross-partition merging.
func (ag *Aggregator) FoldStats() []byte {
	b, err := json.Marshal(ag.snapshotState())
	if err != nil {
		// The section is built from plain values; Marshal cannot fail.
		panic(fmt.Sprintf("engine: rendering fold stats: %v", err))
	}
	return b
}

// MergeFoldStats merges per-partition snapshot sections (as produced
// by FoldStats) of aggregators running plan into one rendered stats
// document of the same shape as a single node's Stats(0), less the
// per-group fold versions: groups with equal encoded keys re-fold,
// HAVING applies to the merged groups, and the document version is
// the sum of the sections' versions (the total number of matches
// folded cluster-wide). Groups appear in first appearance order across
// the sections in argument order, so a fixed partition enumeration
// yields a deterministic merge.
func MergeFoldStats(plan *AggPlan, sections [][]byte) ([]byte, error) {
	if len(sections) == 0 {
		return nil, fmt.Errorf("engine: no fold documents to merge")
	}
	ag := NewAggregator(plan)
	for i, raw := range sections {
		var sa snapAgg
		if err := json.Unmarshal(raw, &sa); err != nil {
			return nil, fmt.Errorf("engine: parsing fold document %d: %w", i, err)
		}
		if err := ag.foldSection(&sa, true); err != nil {
			return nil, fmt.Errorf("engine: fold document %d: %w", i, err)
		}
	}
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.render(0, false), nil
}
