package server

import (
	"sync"

	"repro/internal/automaton"
	"repro/internal/engine"
)

// AutomatonCache shares compiled automata, with their aggregation
// plans, across registrations keyed by the exact query text:
// registering N copies of one query compiles it once, and all copies
// run against the same immutable compiled instance. The cache is
// bounded — least-recently-used entries are evicted past the cap,
// which is always safe because automata and plans are immutable and
// every registered query keeps its own reference.
//
// A cache belongs to one schema: entries are compiled against the
// schema of the server that inserted them, so a cache may only be
// shared between servers with equal schemas (the benchmark harness
// does this to amortize compilation across per-iteration servers).
type AutomatonCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	auto *automaton.Automaton
	plan *engine.AggPlan // nil without an AGGREGATE clause
	used uint64
}

// NewAutomatonCache creates a cache holding at most capacity compiled
// automata (default 1024 when capacity <= 0).
func NewAutomatonCache(capacity int) *AutomatonCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &AutomatonCache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// Len reports the number of cached automata.
func (c *AutomatonCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns the cached automaton and plan for the query text,
// compiling and inserting them via compile on a miss.
func (c *AutomatonCache) get(text string, compile func() (*automaton.Automaton, *engine.AggPlan, error)) (*automaton.Automaton, *engine.AggPlan, error) {
	c.mu.Lock()
	c.tick++
	if e, ok := c.entries[text]; ok {
		e.used = c.tick
		auto, plan := e.auto, e.plan
		c.mu.Unlock()
		return auto, plan, nil
	}
	c.mu.Unlock()

	// Compile outside the lock: compilation is pure, and a rare
	// duplicate compile under concurrent registration of the same text
	// is cheaper than serializing every registration on the cache.
	auto, plan, err := compile()
	if err != nil {
		return nil, nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[text]; ok {
		// Another registration raced us; adopt its instance so equal
		// texts share one compiled automaton.
		e.used = c.tick
		return e.auto, e.plan, nil
	}
	if len(c.entries) >= c.cap {
		// Evict the least-recently-used entry. The O(n) scan only runs
		// on insertion past the cap, which churning registrations hit
		// rarely relative to the compile they just paid for.
		var oldest string
		var oldestUsed uint64
		first := true
		for k, e := range c.entries {
			if first || e.used < oldestUsed {
				oldest, oldestUsed, first = k, e.used, false
			}
		}
		delete(c.entries, oldest)
	}
	c.entries[text] = &cacheEntry{auto: auto, plan: plan, used: c.tick}
	return auto, plan, nil
}
