package docs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// driftPins maps a documentation file to names that must appear in it
// verbatim: CLI flags, metric series, endpoints and language keywords
// the running code ships under exactly these spellings. Renaming one
// in the code without sweeping the docs fails here, which is the
// point — the table is the contract that the operator-facing surface
// and its documentation move together. When a rename is intentional,
// update the docs first and this table with them.
var driftPins = map[string][]string{
	"README.md": {
		"docs/QUERY_LANGUAGE.md",
		"docs/OPERATIONS.md",
		"AGGREGATE",
		"/stats",
		"sesgen",
		"-ndjson",
		"sesrouter",
		"-cluster",
		"-partition",
	},
	"docs/QUERY_LANGUAGE.md": {
		// Every shipped language construct, as the parser spells it.
		"PATTERN", "PERMUTE", "SET", "THEN", "WHERE", "WITHIN",
		"AGGREGATE", "HAVING", "PER", "PARTITION",
		"count", "sum", "avg", "min", "max",
		// Quantifiers and operators.
		"`v+`", "`v?`", "`v*`",
		"\"=\" | \"!=\" | \"<\" | \"<=\" | \">\" | \">=\"",
		// Duration units.
		"\"s\" | \"m\" | \"h\" | \"d\" | \"w\"",
		// The aggregate stats surface.
		"/stats",
		"\"delta\":true",
		"\"dropped\"",
	},
	"docs/OPERATIONS.md": {
		// sesd flags (mailbox capacity is in blocks).
		"-mailbox",
		"event blocks",
		"-matchlog",
		"-wal-dir",
		"-fsync",
		// Registration spec fields.
		"`materialize`",
		"`admission`",
		"?backfill=true",
		// Endpoints.
		"GET /queries/{id}/stats",
		"GET /queries/{id}/matches",
		"?follow",
		// Metric series named in code (internal/obs registrations).
		"ses_agg_folds_total",
		"ses_agg_groups",
		"ses_agg_stats_requests_total",
		"ses_cond_type_mismatch_total",
		"ses_route_events_routed_total",
		"ses_route_events_skipped_total",
		"ses_server_query_shed_total",
		"ses_wal_appends_total",
		"ses_replica_lag",
		// Clustering (§8): node-side flags, router flags, the routable
		// refusal state, the progress pair the merge reads, and every
		// router metric series.
		"-cluster",
		"-partition",
		"-inflight",
		"-health-every",
		"-retry-attempts",
		"\"state\":\"not-owned\"",
		"`processed_through`",
		"`emitted`",
		"?fold=1",
		"ses_router_batches_total",
		"ses_router_events_total",
		"ses_router_partition_retries_total",
		"ses_router_matches_merged_total",
		"ses_router_next_seq",
		"ses_router_node_up",
		"ses_router_node_lag",
	},
	"EXPERIMENTS.md": {
		"ses_cond_type_mismatch_total",
		"BENCH_baseline.json",
		"AggThroughput",
	},
	"DESIGN.md": {
		"docs/QUERY_LANGUAGE.md",
		"AGGREGATE",
		"/stats",
	},
}

// driftBans maps a documentation file to names that must not appear in
// it: surfaces the code no longer ships, which a stale sentence would
// still advertise.
var driftBans = map[string][]string{
	"README.md":          {"Sharded", "ses_sharded_", "`shards`", `"shards"`},
	"docs/OPERATIONS.md": {"Sharded", "ses_sharded_", "`shards`", `"shards"`},
}

// TestDocsDriftPins fails when a documented name disappears from the
// file that is supposed to document it — the cheap tripwire against
// flag/metric renames silently going stale in the docs.
func TestDocsDriftPins(t *testing.T) {
	root := repoRoot(t)
	for file, pins := range driftPins {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		text := string(data)
		for _, pin := range pins {
			if !strings.Contains(text, pin) {
				t.Errorf("%s: expected to document %q (flag/metric/construct renamed without a docs sweep?)", file, pin)
			}
		}
		for _, ban := range driftBans[file] {
			if strings.Contains(text, ban) {
				t.Errorf("%s: still documents %q, which the code no longer ships", file, ban)
			}
		}
	}
}
