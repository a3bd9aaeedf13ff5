package resilience

import (
	"math/rand"
	"sync"

	"repro/internal/event"
)

// ChaosConfig parameterizes a ChaosSource. All probabilities are in
// [0, 1]; the zero config forwards the stream unchanged.
type ChaosConfig struct {
	// Seed seeds the RNG; runs with the same seed and input are
	// reproducible.
	Seed int64
	// DropProb is the probability of an event being lost in transit.
	DropProb float64
	// DupProb is the probability of an event being delivered twice
	// (at-least-once transport behavior).
	DupProb float64
	// ReorderWindow > 1 shuffles the stream within consecutive chunks
	// of this many events: an event is displaced by at most
	// ReorderWindow-1 positions, so the induced lateness is bounded by
	// the time span of ReorderWindow consecutive events (plus jitter).
	ReorderWindow int
	// JitterProb is the probability of an event's timestamp being
	// perturbed by up to ±MaxJitter ticks (clock skew).
	JitterProb float64
	MaxJitter  event.Duration
	// PanicAfter lists 1-based delivery indices at which FaultHook
	// panics, each exactly once — simulating a processing crash at that
	// point in the pipeline.
	PanicAfter []int64
}

// ChaosStats counts the faults a ChaosSource actually injected.
type ChaosStats struct {
	Forwarded  int64
	Dropped    int64
	Duplicated int64
	Jittered   int64
	Panics     int64
}

// ChaosSource wraps an event channel and injects stream imperfections
// — drops, duplicates, bounded reordering, timestamp jitter — from a
// seeded RNG, plus processing panics via FaultHook. It exists for
// torture tests: a supervised pipeline fed from a ChaosSource whose
// reordering stays within the reorder slack (and whose drop
// probability is zero) must produce exactly the matches of a clean
// run.
type ChaosSource struct {
	cfg ChaosConfig
	out chan event.Event

	mu    sync.Mutex
	stats ChaosStats

	// delivered and pendingPanics are touched only by FaultHook, which
	// runs on the consumer's goroutine.
	delivered    int64
	pendingPanic map[int64]bool
}

// NewChaosSource starts forwarding events from in, with faults, on the
// channel returned by Events. The output closes when in closes.
func NewChaosSource(in <-chan event.Event, cfg ChaosConfig) *ChaosSource {
	c := &ChaosSource{cfg: cfg, out: make(chan event.Event), pendingPanic: make(map[int64]bool)}
	for _, n := range cfg.PanicAfter {
		c.pendingPanic[n] = true
	}
	go c.pump(in)
	return c
}

// Events returns the perturbed stream.
func (c *ChaosSource) Events() <-chan event.Event { return c.out }

// Stats returns the faults injected so far.
func (c *ChaosSource) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FaultHook panics at the configured delivery indices, once each.
// Install it as the supervisor's fault hook (Config.faultHook) so that
// crashes strike inside the supervised region, where recovery and
// checkpoint replay must mask them. It must be called from a single
// goroutine (the pipeline's), as the supervisor does.
func (c *ChaosSource) FaultHook(*event.Event) {
	c.delivered++
	if c.pendingPanic[c.delivered] {
		delete(c.pendingPanic, c.delivered)
		c.mu.Lock()
		c.stats.Panics++
		c.mu.Unlock()
		panic("resilience: injected chaos panic")
	}
}

func (c *ChaosSource) pump(in <-chan event.Event) {
	defer close(c.out)
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	window := c.cfg.ReorderWindow
	if window < 1 {
		window = 1
	}
	chunk := make([]event.Event, 0, window)
	flush := func() {
		// Chunked shuffle: displacement within a chunk only, so the
		// reordering bound holds deterministically.
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		for _, e := range chunk {
			c.out <- e
			c.bump(func(s *ChaosStats) { s.Forwarded++ })
		}
		chunk = chunk[:0]
	}
	for e := range in {
		if c.cfg.DropProb > 0 && rng.Float64() < c.cfg.DropProb {
			c.bump(func(s *ChaosStats) { s.Dropped++ })
			continue
		}
		if c.cfg.JitterProb > 0 && rng.Float64() < c.cfg.JitterProb && c.cfg.MaxJitter > 0 {
			e.Time += event.Time(rng.Int63n(2*int64(c.cfg.MaxJitter)+1) - int64(c.cfg.MaxJitter))
			c.bump(func(s *ChaosStats) { s.Jittered++ })
		}
		chunk = append(chunk, e)
		if c.cfg.DupProb > 0 && rng.Float64() < c.cfg.DupProb {
			chunk = append(chunk, e)
			c.bump(func(s *ChaosStats) { s.Duplicated++ })
		}
		if len(chunk) >= window {
			flush()
		}
	}
	flush()
}

func (c *ChaosSource) bump(f func(*ChaosStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}
