package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
		"ses_server_late_events_total",
		"ses_server_query_shed_total",
		"ses_wal_appends_total",
		"ses_replica_lag",
		// Clustering (§8): node-side flags, router flags, the routable
		// refusal state, the progress pair, the clock punctuation the
		// merge reads, and every router metric series.
		"-cluster",
		"-partition",
		"-inflight",
		"-health-every",
		"-retry-attempts",
		"\"state\":\"not-owned\"",
		"`processed_through`",
		"`emitted`",
		"`: clock <t>`",
		"?fold=1",
		"ses_router_batches_total",
		"ses_router_events_total",
		"ses_router_partition_retries_total",
		"ses_router_failovers_total",
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
	"README.md":              {"Sharded", "ses_sharded_", "`shards`", `"shards"`, "StreamReordered", ".Stream(", "ChaosSource", "`WITHIN` prune", "DisableTauPrune", "SuperviseBlocks", "CheckpointOnDrain", "ExplicitSeq", "PassesFilterInterpreted", "TestCompiledInterpretedIdentity", "keepChunks"},
	"docs/OPERATIONS.md":     {"Sharded", "ses_sharded_", "`shards`", `"shards"`, "`WITHIN` prune", "DisableTauPrune", "ExplicitSeq", "PassesFilterInterpreted", "TestCompiledInterpretedIdentity", "keepChunks"},
	"docs/QUERY_LANGUAGE.md": {"StreamReordered", ".Stream(", "ChaosSource", "`WITHIN` prune", "DisableTauPrune", "SuperviseBlocks", "CheckpointOnDrain", "PassesFilterInterpreted", "TestCompiledInterpretedIdentity", "keepChunks"},
	"DESIGN.md":              {"`WITHIN` prune", "DisableTauPrune", "PassesFilterInterpreted", "TestCompiledInterpretedIdentity", "keepChunks"},
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

// apiRef matches a reference to the library's API in prose: an
// exported name qualified by the package (ses.X) or a method of the
// Query or Runner type (Query.X, Runner.X).
var apiRef = regexp.MustCompile(`\b(ses|Query|Runner)\.([A-Z][A-Za-z0-9_]*)`)

// TestDocsNameTheAPI fails when README.md, DESIGN.md or a file under
// docs/ names a ses.X, Query.X or Runner.X that the code does not
// declare: ses.X must be an exported top-level name of the root
// package, Query.X a method declared there, and Runner.X a method of
// internal/engine's Runner. The historical records (EXPERIMENTS.md,
// CHANGES.md, ROADMAP.md) may name what was removed and are not read.
func TestDocsNameTheAPI(t *testing.T) {
	root := repoRoot(t)
	names, queryMethods := declared(t, root, ".", "Query")
	_, runnerMethods := declared(t, root, "internal/engine", "Runner")
	known := map[string]map[string]bool{"ses": names, "Query": queryMethods, "Runner": runnerMethods}

	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(root, "README.md"), filepath.Join(root, "DESIGN.md"))
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, file)
		for _, m := range apiRef.FindAllStringSubmatch(string(data), -1) {
			if !known[m[1]][m[2]] {
				t.Errorf("%s: names %s, which the code does not declare", rel, m[0])
			}
		}
	}
}

// declared parses the non-test files of the package in dir and returns
// its exported top-level names and the exported methods of the named
// receiver type.
func declared(t *testing.T, root, dir, recv string) (names, methods map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	names, methods = map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					} else if recvName(d.Recv.List[0].Type) == recv {
						methods[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names, methods
}

// recvName returns the type name of a method receiver, *T or T.
func recvName(typ ast.Expr) string {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
