package server

import "repro/internal/event"

// routeAttrIndex groups the routing keys of one event attribute: for
// every equality constant registered queries require on it, the dense
// positions of those queries.
type routeAttrIndex struct {
	attr    int
	byValue map[event.Value][]int32
}

// routeSnapshot is the immutable registry-level routing index consulted
// by the ingest hot path. It is rebuilt under the registration fences
// (s.mu, with ingest serialized by s.ingestMu on the write side) and
// published through an atomic pointer, so readers never take a lock —
// the RCU pattern: a batch in flight keeps using the snapshot it
// loaded, and delivery to a just-removed query is shed through the
// query's closed removed channel exactly as before.
type routeSnapshot struct {
	// catchAll receives every event that is not late, and a query with
	// reorder slack every event: queries whose automata are
	// type-agnostic (some variable has no equality condition), queries
	// with reorder slack (their reorderer must see the late events too)
	// and keyed queries (a key's expired match surfaces at that
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
		for _, k := range q.route.Keys {
			ai, ok := byAttr[k.Attr]
			if !ok {
				ai = len(snap.attrs)
				byAttr[k.Attr] = ai
				snap.attrs = append(snap.attrs, routeAttrIndex{
					attr:    k.Attr,
					byValue: make(map[event.Value][]int32),
				})
			}
			tg := snap.attrs[ai].byValue
			if _, seen := tg[k.Val]; !seen {
				snap.keyCount++
			}
			tg[k.Val] = append(tg[k.Val], pos)
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
	// mark carries the per-event dedup epoch: mark[pos] equal to the
	// current epoch means the query was already matched by an earlier
	// key of the same event.
	mark []uint64
	// active lists the routed positions with a non-empty sub-batch.
	active []int32
	epoch  uint64
}

// resize adapts the scratch to a snapshot's routed query count.
func (sc *routeScratch) resize(n int) {
	if len(sc.idx) == n {
		return
	}
	sc.idx = make([][]int32, n)
	sc.mark = make([]uint64, n)
	sc.epoch = 0
}

// routeBatch delivers the shared event slice. inOrder selects the
// events that are not late (nil when none is): catch-all queries with
// reorder slack receive the full block, every other catch-all query
// the in-order block, and routed queries an index slice selecting the
// in-order events that match one of their keys. Runs under s.ingestMu.
func (s *Server) routeBatch(snap *routeSnapshot, shared []event.Event, inOrder []int32) {
	full := event.Block{Events: shared}
	ordered := full
	if inOrder != nil {
		ordered.Idx = inOrder
	}
	for _, q := range snap.catchAll {
		if q.spec.Slack > 0 {
			s.deliverBlock(q, full)
		} else if ordered.Len() > 0 {
			s.deliverBlock(q, ordered)
		}
	}
	if len(snap.routed) == 0 {
		return
	}
	sc := &s.scratch
	sc.resize(len(snap.routed))
	sc.active = sc.active[:0]
	delivered := 0
	for k := 0; k < ordered.Len(); k++ {
		// An event matching no key of a query can never bind any of its
		// variables; on the in-order stream skipping it changes nothing.
		i := int32(k)
		if inOrder != nil {
			i = inOrder[k]
		}
		e := &shared[i]
		sc.epoch++
		for ai := range snap.attrs {
			for _, pos := range snap.attrs[ai].byValue[e.Attrs[snap.attrs[ai].attr]] {
				if sc.mark[pos] == sc.epoch {
					continue
				}
				sc.mark[pos] = sc.epoch
				if len(sc.idx[pos]) == 0 {
					sc.active = append(sc.active, pos)
				}
				sc.idx[pos] = append(sc.idx[pos], i)
				delivered++
			}
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
	s.skippedEvents.Add(int64(ordered.Len()*len(snap.routed) - delivered))
}
