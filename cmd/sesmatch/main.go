// Command sesmatch evaluates a SES pattern query over a CSV event
// relation and prints the matching substitutions.
//
// Usage:
//
//	sesmatch -query 'PATTERN PERMUTE(c, p+, d) THEN (b) WHERE ... WITHIN 264h' events.csv
//	sesmatch -query-file q1.ses -metrics -filter events.csv
//
// Flags:
//
//	-query / -query-file   the query text (one of the two is required)
//	-filter                enable the event filtering optimisation
//	-maximal               drop non-maximal matches on tied timestamps
//	-metrics               print execution metrics to stderr
//	-analyze               print the pattern's complexity classification
//	-dot FILE              write the compiled automaton as Graphviz DOT
//	-sort                  sort the input by time instead of failing
//	-partition A           evaluate per partition of attribute A
//	-limit N               print at most N matches (0 = all)
//	-json                  print matches as JSON, one object per line
//	-checkpoint FILE       periodically snapshot the evaluation state
//	-checkpoint-every N    events between snapshots (default 1000)
//	-resume                restore state from -checkpoint and continue
//	-trace FILE            write instance-lifecycle trace as JSONL
//	-debug-addr ADDR       serve /metrics and /debug/pprof on ADDR
//
// With -trace FILE every instance-lifecycle event of the evaluation —
// spawn, transition, expire, shed, match — is appended to FILE as one
// JSON object per line (see engine.TraceRecord for the schema). With
// -debug-addr the process serves the observability HTTP surface:
// Prometheus metrics on /metrics, expvar on /debug/vars and the
// standard profiling handlers under /debug/pprof/.
//
// Matches are printed one per line in the paper's substitution
// notation, followed by the bound events when -verbose is given.
//
// A query with an AGGREGATE clause runs on the enumeration-free
// aggregation path: no matches are materialized, and the output is the
// aggregate stats document (one JSON object: per-partition groups with
// their counts and sums, HAVING applied) instead of match lines.
// -partition, -checkpoint and -maximal do not apply to aggregate runs.
//
// With -checkpoint, evaluation runs through Query.Supervise, which
// numbers the input events by position, recovers from panics, and
// persists its checkpoint (atomically, via rename) every
// -checkpoint-every events and at the end of input; a run repeated
// with -resume added skips the input the checkpoint covers (for a bare
// Runner.WriteSnapshot file, the events it counts) and emits only the
// matches not yet completed there. Matches are printed when evaluation
// finishes, so matches completed before the checkpoint appear on the
// original run's output, not the resumed run's; use Query.Supervise
// directly when every match must be delivered across crashes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/resilience"
)

// options collects the command line configuration of one run.
type options struct {
	queryText       string
	queryFile       string
	filter          bool
	maximal         bool
	metrics         bool
	analyze         bool
	dotFile         string
	sortInput       bool
	partition       string
	limit           int
	verbose         bool
	asJSON          bool
	checkpoint      string
	checkpointEvery int
	resume          bool
	traceFile       string
	debugAddr       string
	args            []string
}

func main() {
	var o options
	flag.StringVar(&o.queryText, "query", "", "query text")
	flag.StringVar(&o.queryFile, "query-file", "", "file containing the query text")
	flag.BoolVar(&o.filter, "filter", false, "enable the event filtering optimisation (Section 4.5)")
	flag.BoolVar(&o.maximal, "maximal", false, "drop non-maximal matches among tied timestamps")
	flag.BoolVar(&o.metrics, "metrics", false, "print execution metrics to stderr")
	flag.BoolVar(&o.analyze, "analyze", false, "print the complexity classification to stderr")
	flag.StringVar(&o.dotFile, "dot", "", "write the compiled automaton as Graphviz DOT to this file")
	flag.BoolVar(&o.sortInput, "sort", false, "sort the input by time instead of failing on disorder")
	flag.StringVar(&o.partition, "partition", "", "evaluate per partition of this attribute (the paper's \"for each patient\")")
	flag.IntVar(&o.limit, "limit", 0, "print at most N matches (0 = all)")
	flag.BoolVar(&o.verbose, "verbose", false, "print the bound events of every match")
	flag.BoolVar(&o.asJSON, "json", false, "print matches as JSON, one object per line")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "snapshot the evaluation state to this file periodically")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 1000, "events between checkpoint snapshots")
	flag.BoolVar(&o.resume, "resume", false, "restore state from -checkpoint and skip the consumed input prefix")
	flag.StringVar(&o.traceFile, "trace", "", "write the instance-lifecycle trace to this file as JSON lines")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sesmatch:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	queryText := o.queryText
	switch {
	case queryText == "" && o.queryFile == "":
		return fmt.Errorf("one of -query or -query-file is required")
	case queryText != "" && o.queryFile != "":
		return fmt.Errorf("-query and -query-file are mutually exclusive")
	case o.queryFile != "":
		b, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
		}
		queryText = string(b)
	}
	if len(o.args) != 1 {
		return fmt.Errorf("expected exactly one input CSV file, got %d arguments", len(o.args))
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if o.checkpoint != "" && o.partition != "" {
		return fmt.Errorf("-checkpoint and -partition are mutually exclusive: a checkpointed run emits matches in step order, a partitioned run orders them by start time")
	}

	rel, err := ses.LoadCSVFile(o.args[0], ses.ReadOptions{Sort: o.sortInput})
	if err != nil {
		return err
	}
	q, err := ses.Compile(queryText, rel.Schema())
	if err != nil {
		return err
	}
	if o.analyze {
		fmt.Fprint(os.Stderr, q.Explain())
	}
	if q.HasAggregate() {
		switch {
		case o.partition != "":
			return fmt.Errorf("-partition is not supported for AGGREGATE queries; use PER PARTITION in the query")
		case o.checkpoint != "" || o.resume:
			return fmt.Errorf("-checkpoint is not supported for AGGREGATE queries")
		case o.maximal:
			return fmt.Errorf("-maximal does not apply to AGGREGATE queries: matches are folded, not enumerated")
		}
	}
	if o.dotFile != "" {
		f, err := os.Create(o.dotFile)
		if err != nil {
			return err
		}
		if err := q.WriteDOT(f, "ses"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	opts := []ses.Option{ses.WithFilter(o.filter)}
	var traceFile *os.File
	var traceErr func() error
	if o.traceFile != "" {
		traceFile, err = os.Create(o.traceFile)
		if err != nil {
			return err
		}
		topt, terr, err := q.TraceJSON(traceFile)
		if err != nil {
			traceFile.Close()
			return err
		}
		opts = append(opts, topt)
		traceErr = terr
	}
	if o.debugAddr != "" {
		reg := ses.NewMetricsRegistry()
		opts = append(opts, ses.WithMetricsRegistry(reg))
		srv, err := ses.ServeDebug(o.debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/ (/metrics, /debug/pprof)\n", srv.Addr)
	}

	var matches []ses.Match
	var aggData []byte
	var m ses.Metrics
	switch {
	case q.HasAggregate():
		aggData, m, err = q.Aggregate(rel, opts...)
	case o.checkpoint != "":
		matches, m, err = runSupervised(q, rel, o, opts)
	case o.partition != "":
		matches, m, err = q.MatchPartitioned(rel, o.partition, opts...)
	default:
		matches, m, err = q.Match(rel, opts...)
	}
	if traceFile != nil {
		if werr := traceErr(); werr != nil && err == nil {
			err = fmt.Errorf("trace: %w", werr)
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if aggData != nil {
		fmt.Println(string(aggData))
		if o.metrics {
			fmt.Fprintf(os.Stderr, "%d events, %d matches folded, %s\n", rel.Len(), m.Matches, m)
		}
		return nil
	}
	if o.maximal {
		matches = ses.FilterMaximal(matches)
	}
	var line []byte // every -json line is encoded into this one buffer
	for i, match := range matches {
		if o.limit > 0 && i >= o.limit {
			if !o.asJSON {
				fmt.Printf("... and %d more matches\n", len(matches)-o.limit)
			}
			break
		}
		if o.asJSON {
			var err error
			if line, err = ses.AppendMatchJSON(line[:0], match, rel.Schema()); err != nil {
				return err
			}
			line = append(line, '\n')
			os.Stdout.Write(line)
			continue
		}
		fmt.Println(match)
		if o.verbose {
			for _, e := range match.Events() {
				fmt.Printf("    %s\n", e)
			}
		}
	}
	if o.metrics {
		fmt.Fprintf(os.Stderr, "%d events, %d matches, %s\n", rel.Len(), len(matches), m)
	}
	return nil
}

// runSupervised evaluates the query through Query.Supervise, which
// checkpoints to o.checkpoint every o.checkpointEvery events and at the
// end of input. With o.resume it restores that checkpoint and is fed
// only the input events after the position it covers.
func runSupervised(q *ses.Query, rel *ses.Relation, o options, opts []ses.Option) ([]ses.Match, ses.Metrics, error) {
	cfg := ses.SuperviseConfig{CheckpointPath: o.checkpoint, CheckpointEvery: o.checkpointEvery, Resume: o.resume}
	start, err := resilience.ResumeSeq(cfg)
	if err != nil {
		return nil, ses.Metrics{}, err
	}
	if start > rel.Len() {
		return nil, ses.Metrics{}, fmt.Errorf("checkpoint has consumed %d events but the input has only %d", start, rel.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stops the feeder if the run ends early
	// A few dozen events of slack let the feeder run ahead in bursts,
	// with fewer goroutine switches than an unbuffered handoff.
	in := make(chan ses.Event, 64)
	go func() {
		defer close(in)
		for i := start; i < rel.Len(); i++ {
			select {
			case in <- *rel.Event(i):
			case <-ctx.Done():
				return
			}
		}
	}()
	out, sup, err := q.Supervise(ctx, in, cfg, opts...)
	if err != nil {
		return nil, ses.Metrics{}, err
	}
	var matches []ses.Match
	for m := range out {
		matches = append(matches, m)
	}
	return matches, sup.Metrics(), sup.Err()
}
