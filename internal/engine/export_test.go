package engine

// Test helpers for the external engine_test package, whose tests drive
// runners through resilience.Supervise, which this package cannot
// import.
var (
	CompileForTest        = compile
	SeqPatternForTest     = seqPattern
	SimpleSchemaForTest   = simpleSchema
	EventForTest          = mkEvent
	CompileShardedForTest = compileSharded
	SameMatchSetForTest   = sameMatchSet
	MatchStringsForTest   = matchStrings
)
