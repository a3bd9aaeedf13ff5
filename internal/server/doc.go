// Package server is the multi-query serving layer of the SES runtime:
// one event stream, fanned out to a registry of concurrently running
// SES pattern queries (Cadonna, Gamper, Böhlen: "Sequenced Event Set
// Pattern Matching", EDBT 2011).
//
// A Server owns a query registry with add/remove at runtime. Each
// registered query compiles its text into a pattern and a SES
// automaton (Definition 3 of the paper); duplicates are rejected by
// the automaton's structural fingerprint. Ingested events are
// dispatched once and routed to every query's bounded mailbox (an
// event earlier than the stream high-water reaches only the queries
// with reorder slack), behind
// which an independent per-query pipeline evaluates the automaton: a
// supervised runner (resilience.Supervise: schema validation,
// reorder slack, checkpoint/replay crash recovery), keyed by an
// attribute (engine.WithPartitionKey) when the spec names one. Every
// event keeps its stream position as its Seq, the numbering
// ses.Query.Supervise gives a library stream by arrival, so a late
// event shifts no other event's seq in either.
// Matches leave the pipeline a stepped block at a time and are encoded
// into one reused buffer by an engine.MatchEncoder, which renders each
// bound event once per block and copies those bytes into every later
// match of the block that binds it (the cache is reset after the
// block). The block's bytes are copied out once and appended, one lock
// and one reader wake-up per block, to an in-memory, offset-addressed
// match log that HTTP clients read as NDJSON or SSE, including live
// follow; a follower gets each read round in one write.
//
// The HTTP surface (see Server.Handler) exposes batch NDJSON ingest,
// query management, match streaming, health, and the observability
// endpoints of internal/obs (/metrics, /debug/vars, /debug/pprof).
// Every per-query metric series carries a query="<id>" label, so the
// queries sharing one registry stay distinguishable; the series are
// unregistered when the query is removed.
//
// Shutdown is graceful: Drain stops admission, closes every mailbox,
// waits for the pipelines to flush their windows (emitting the
// end-of-input matches of Definition 2), each having checkpointed to
// the checkpoint directory as its input ended, and persists the query
// set as a manifest from which a restarted server resumes.
package server
