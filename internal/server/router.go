package server

import (
	"math"

	"repro/internal/event"
)

// noLastStart is the routeLastStart sentinel before any start-capable
// event has been routed to a query: τ-pruning is disabled until then
// (instances created by WAL replay are invisible to the router, so
// "no start seen" must mean "deliver", never "skip").
const noLastStart = math.MinInt64

// routeTarget is one entry of a (attribute, value) routing bucket: the
// dense index of the routed query plus whether the key binds a
// first-set variable (an event matching it can create new instances).
type routeTarget struct {
	pos   int32
	start bool
}

// routeAttrIndex groups the routing keys of one event attribute: the
// targets of every equality constant registered queries require on it.
type routeAttrIndex struct {
	attr    int
	byValue map[event.Value][]routeTarget
}

// routeSnapshot is the immutable registry-level routing index consulted
// by the ingest hot path. It is rebuilt under the registration fences
// (s.mu, with ingest serialized by s.ingestMu on the write side) and
// published through an atomic pointer, so readers never take a lock —
// the RCU pattern: a batch in flight keeps using the snapshot it
// loaded, and delivery to a just-removed query is shed through the
// query's closed removed channel exactly as before.
type routeSnapshot struct {
	// catchAll receives every event: queries whose automata are
	// type-agnostic (some variable has no equality condition), queries
	// with reorder slack (their lateness semantics must see the full
	// stream) and keyed queries (a key's expired match surfaces at that
	// key's next event, routed or not, so skipping events would reorder
	// the emissions of different keys).
	catchAll []*queryState
	// routed are the index-routed queries; a query's position in this
	// slice is the dense pos the attribute buckets refer to.
	routed []*queryState
	attrs  []routeAttrIndex
	// keyCount is the total number of (attribute, value) keys, the
	// ses_route_index_size gauge.
	keyCount int
	// maxWithin is the largest WITHIN window among the routed queries
	// (0 when none has one). It bounds how long an out-of-order event
	// can influence any routed query's instance set, which is how far
	// the stream must advance past a disorder observation before the
	// τ-prune re-arms.
	maxWithin event.Duration
}

// routeSnap returns the current routing snapshot, rebuilding it first
// when registrations have invalidated it. Rebuilding is deferred to
// the next reader so that registering N queries costs one rebuild, not
// N quadratic ones; the registration fences still hold because a
// query's fence offset is stamped under s.ingestMu, which every
// dispatch holds before loading the snapshot.
func (s *Server) routeSnap() *routeSnapshot {
	if s.routeDirty.Load() {
		s.mu.Lock()
		if s.routeDirty.Load() {
			s.rebuildRouteLocked()
			s.routeDirty.Store(false)
		}
		s.mu.Unlock()
	}
	return s.route.Load()
}

// rebuildRouteLocked recomputes the routing snapshot from the
// registered queries and publishes it. Called with s.mu held whenever
// the registry changes.
func (s *Server) rebuildRouteLocked() {
	snap := &routeSnapshot{}
	byAttr := make(map[int]int) // attr -> index into snap.attrs
	for _, id := range s.order {
		q := s.queries[id]
		if s.broadcast || q.route.All || q.spec.Slack > 0 || q.spec.Key != "" {
			snap.catchAll = append(snap.catchAll, q)
			continue
		}
		pos := int32(len(snap.routed))
		snap.routed = append(snap.routed, q)
		if q.auto.Within > snap.maxWithin {
			snap.maxWithin = q.auto.Within
		}
		for _, k := range q.route.Keys {
			ai, ok := byAttr[k.Attr]
			if !ok {
				ai = len(snap.attrs)
				byAttr[k.Attr] = ai
				snap.attrs = append(snap.attrs, routeAttrIndex{
					attr:    k.Attr,
					byValue: make(map[event.Value][]routeTarget),
				})
			}
			tg := snap.attrs[ai].byValue
			if _, seen := tg[k.Val]; !seen {
				snap.keyCount++
			}
			tg[k.Val] = append(tg[k.Val], routeTarget{pos: pos, start: k.Start})
		}
	}
	s.route.Store(snap)
}

// routeScratch is the dispatcher's per-batch working state. It is
// owned by the ingest lock: dispatch is serialized, so one scratch per
// server suffices and the hot path allocates only the per-query index
// slices it actually delivers.
type routeScratch struct {
	// idx accumulates, per routed query, the batch positions of the
	// events routed to it.
	idx [][]int32
	// mark and startMark carry the per-event dedup epoch: mark[pos]
	// equal to the current epoch means the query was already matched by
	// an earlier key of the same event.
	mark      []uint64
	startMark []uint64
	// touched lists the routed positions matched by the current event;
	// active lists the positions with a non-empty sub-batch.
	touched []int32
	active  []int32
	epoch   uint64
}

// resize adapts the scratch to a snapshot's routed query count.
func (sc *routeScratch) resize(n int) {
	if len(sc.idx) == n {
		return
	}
	sc.idx = make([][]int32, n)
	sc.mark = make([]uint64, n)
	sc.startMark = make([]uint64, n)
	sc.epoch = 0
}

// routeBatch computes per-query sub-batches of the shared event slice
// and delivers them: catch-all queries receive the full block, routed
// queries receive an index slice selecting the events that match one
// of their keys and survive the WITHIN prune. Runs under s.ingestMu.
func (s *Server) routeBatch(snap *routeSnapshot, shared []event.Event) {
	full := event.Block{Events: shared}
	for _, q := range snap.catchAll {
		s.deliverBlock(q, full)
	}
	if len(snap.routed) == 0 {
		return
	}
	sc := &s.scratch
	sc.resize(len(snap.routed))
	sc.active = sc.active[:0]
	delivered := 0
	for i := range shared {
		e := &shared[i]
		// Track global stream monotonicity. The τ-prune can never drop a
		// match: routeLastStart only ratchets upward, so it bounds every
		// live instance's start time in any arrival order, and a pruned
		// event therefore lies more than WITHIN past every instance — it
		// can neither bind nor (matching no start key) spawn; delivering
		// it could only trigger the lazy expiry the engine performs at
		// the next delivered event or at flush anyway. What disorder CAN
		// do is make that deferral visible: a straggler reaching back
		// past a prune decision finds instances the prune left unswept
		// and may complete one the prune-free stream would have expired
		// — an extra or extended match, never a missing one (pinned by
		// TestRoutingPruneReachBackAnomaly). To keep that divergence
		// bounded the prune suspends at the first out-of-order event and
		// re-arms only once the stream high-water has advanced more than
		// the largest routed WITHIN past the last disorder observation:
		// by then every instance a straggler could have started or
		// extended has expired, and prune decisions are again exactly
		// the lazy-expiry skips they are on an ordered stream. Key-based
		// skipping stays on throughout — an event matching no key of a
		// query can never bind any of its variables, regardless of
		// order.
		if int64(e.Time) < s.routeMaxTime {
			s.tauPrune = false
			s.routeDisorderMax = s.routeMaxTime
		} else {
			s.routeMaxTime = int64(e.Time)
			if !s.tauPrune && snap.maxWithin > 0 &&
				event.Duration(s.routeMaxTime-s.routeDisorderMax) > snap.maxWithin {
				s.tauPrune = true
			}
		}
		sc.epoch++
		sc.touched = sc.touched[:0]
		for ai := range snap.attrs {
			targets := snap.attrs[ai].byValue[e.Attrs[snap.attrs[ai].attr]]
			for _, t := range targets {
				if sc.mark[t.pos] != sc.epoch {
					sc.mark[t.pos] = sc.epoch
					sc.touched = append(sc.touched, t.pos)
				}
				if t.start && sc.startMark[t.pos] != sc.epoch {
					sc.startMark[t.pos] = sc.epoch
				}
			}
		}
		for _, pos := range sc.touched {
			q := snap.routed[pos]
			if sc.startMark[pos] == sc.epoch {
				// The event can bind a first-set variable: it may start a
				// new instance, so it must be delivered, and it advances
				// the query's newest-possible instance start time. The
				// bound only ratchets upward: a late out-of-order start
				// must not regress it below an instance that already
				// exists, or the prune would drop that instance's
				// extensions once it re-arms.
				if t := int64(e.Time); t > q.routeLastStart.Load() {
					q.routeLastStart.Store(t)
				}
			} else if s.tauPrune && !s.noTauPrune && q.auto.Within > 0 {
				// The event can only extend existing instances. Every
				// live instance started at or before routeLastStart, so
				// when the event lies more than WITHIN past it, no
				// instance can absorb it — the step would only perform
				// expiry the engine does lazily anyway (same soundness
				// class as the paper's Section 4.5 filter).
				ls := q.routeLastStart.Load()
				if ls != noLastStart && event.Duration(int64(e.Time)-ls) > q.auto.Within {
					continue
				}
			}
			if len(sc.idx[pos]) == 0 {
				sc.active = append(sc.active, pos)
			}
			sc.idx[pos] = append(sc.idx[pos], int32(i))
			delivered++
		}
	}
	for _, pos := range sc.active {
		q := snap.routed[pos]
		if n := len(sc.idx[pos]); n == len(shared) {
			s.deliverBlock(q, full)
		} else {
			ix := make([]int32, n)
			copy(ix, sc.idx[pos])
			s.deliverBlock(q, event.Block{Events: shared, Idx: ix})
		}
		sc.idx[pos] = sc.idx[pos][:0]
	}
	s.routedEvents.Add(int64(delivered))
	s.skippedEvents.Add(int64(len(shared)*len(snap.routed) - delivered))
}
