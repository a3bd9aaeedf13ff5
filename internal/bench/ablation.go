package bench

import (
	"fmt"
	"strings"

	"repro/internal/automaton"
	"repro/internal/engine"
)

// This file contains the two ablations DESIGN.md adds beyond the
// paper's experiments: the effect of the event selection strategy and
// a breakdown of what the event filter saves.

// StrategyRow compares the paper's skip-till-next-match semantics with
// the NFA^b-style skip-till-any-match extension on one dataset.
type StrategyRow struct {
	Dataset                 string
	W                       int
	NextMax, AnyMax         int64
	NextMatches, AnyMatches int64
}

// RunAblationStrategy runs P4 (singletons, non-exclusive — the pattern
// where skipping choices multiply) under both strategies. The
// skip-till-any runs are capped; a row reports Capped when the
// extension exploded past the limit, which is itself the finding.
func RunAblationStrategy(datasets []Dataset, cap int) ([]StrategyRow, []bool, error) {
	p := P4()
	var rows []StrategyRow
	var capped []bool
	for _, d := range datasets {
		row := StrategyRow{Dataset: d.Name, W: d.W}
		a, err := automaton.Compile(p, d.Rel.Schema())
		if err != nil {
			return nil, nil, err
		}
		_, m, err := engine.Run(a, d.Rel, engine.WithFilter(true))
		if err != nil {
			return nil, nil, err
		}
		row.NextMax, row.NextMatches = m.MaxSimultaneousInstances, m.Matches

		wasCapped := false
		_, m2, err := engine.Run(a, d.Rel, engine.WithFilter(true),
			engine.WithStrategy(engine.SkipTillAny), engine.WithMaxInstances(cap))
		if err != nil {
			wasCapped = true
		}
		row.AnyMax, row.AnyMatches = m2.MaxSimultaneousInstances, m2.Matches
		rows = append(rows, row)
		capped = append(capped, wasCapped)
	}
	return rows, capped, nil
}

// AblationStrategyTable renders the strategy comparison.
func AblationStrategyTable(rows []StrategyRow, capped []bool, cap int) string {
	var b strings.Builder
	b.WriteString("Ablation A2 — event selection strategy on P4 (max. instances / matches)\n")
	fmt.Fprintf(&b, "%-8s %8s %16s %18s\n", "dataset", "W", "skip-till-next", "skip-till-any")
	for i, r := range rows {
		anyCol := fmt.Sprintf("%d / %d", r.AnyMax, r.AnyMatches)
		if capped[i] {
			anyCol = fmt.Sprintf("exploded past cap %d", cap)
		}
		fmt.Fprintf(&b, "%-8s %8d %16s %18s\n", r.Dataset, r.W,
			fmt.Sprintf("%d / %d", r.NextMax, r.NextMatches), anyCol)
	}
	return b.String()
}

// FilterRow breaks down what the Section 4.5 filter saves on one
// dataset for pattern P6: how many events are skipped and how many
// iterations over Ω disappear, while instance counts and matches stay
// identical.
type FilterRow struct {
	Dataset                        string
	W                              int
	Events, Filtered               int64
	IterNoFilter, IterFilter       int64
	MaxNoFilter, MaxFilter         int64
	MatchesNoFilter, MatchesFilter int64
}

// RunAblationFilter runs P6 with and without filtering and reports the
// breakdown.
func RunAblationFilter(datasets []Dataset) ([]FilterRow, error) {
	p := P6()
	var rows []FilterRow
	for _, d := range datasets {
		a, err := automaton.Compile(p, d.Rel.Schema())
		if err != nil {
			return nil, err
		}
		_, m1, err := engine.Run(a, d.Rel)
		if err != nil {
			return nil, err
		}
		_, m2, err := engine.Run(a, d.Rel, engine.WithFilter(true))
		if err != nil {
			return nil, err
		}
		rows = append(rows, FilterRow{
			Dataset: d.Name, W: d.W,
			Events: m2.EventsProcessed, Filtered: m2.EventsFiltered,
			IterNoFilter: m1.InstanceIterations, IterFilter: m2.InstanceIterations,
			MaxNoFilter: m1.MaxSimultaneousInstances, MaxFilter: m2.MaxSimultaneousInstances,
			MatchesNoFilter: m1.Matches, MatchesFilter: m2.Matches,
		})
	}
	return rows, nil
}

// AblationFilterTable renders the filter breakdown.
func AblationFilterTable(rows []FilterRow) string {
	var b strings.Builder
	b.WriteString("Ablation A1 — what the Section 4.5 filter saves on P6\n")
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %14s %14s %10s %10s\n",
		"dataset", "W", "events", "filtered", "iter w/o", "iter with", "maxΩ w/o", "maxΩ with")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d %10d %10d %14d %14d %10d %10d\n",
			r.Dataset, r.W, r.Events, r.Filtered,
			r.IterNoFilter, r.IterFilter, r.MaxNoFilter, r.MaxFilter)
	}
	return b.String()
}
