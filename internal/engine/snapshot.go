package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/automaton"
	"repro/internal/event"
)

// SnapshotVersion is the current version of the serialized runner
// state format. Restore rejects snapshots with an unknown version so
// that format evolution stays explicit. Version 2 adds the aggregation
// section and version 3 the per-key sections of a keyed runner
// (WithPartitionKey). Each runner writes the oldest version that holds
// its state: an unkeyed runner without an aggregator writes version 1,
// byte-identical to the first format, and a reader that predates
// version 3 refuses a keyed snapshot instead of restoring it unkeyed.
const SnapshotVersion = 3

// The snapshot format is versioned JSON. Events referenced by match
// buffers are written once and referenced by index. Each class is
// written expanded, one instance per path, and buffer nodes as a tree
// (each node names its predecessor by index), so instances that share
// a buffer prefix share its nodes; a restored instance is a class of
// its own.

type snapEvent struct {
	Seq   int        `json:"seq"`
	Time  event.Time `json:"t"`
	Attrs []string   `json:"attrs"`
}

type snapNode struct {
	Var   int32 `json:"var"`
	Event int   `json:"ev"`
	Prev  int   `json:"prev"` // index of the previous node, -1 for none
}

type snapInstance struct {
	State       int32      `json:"state"`
	CurSet      int32      `json:"curSet"`
	Buf         int        `json:"buf"` // index of the newest buffer node, -1 for none
	MinT        event.Time `json:"minT"`
	MaxT        event.Time `json:"maxT"`
	PrevSetsMax event.Time `json:"prevSetsMax"`
}

// snapAggVal is one serialized accumulator slot. The float accumulator
// travels as its shortest round-trip decimal rendering, which — unlike
// a JSON number — also carries NaN and ±Inf.
type snapAggVal struct {
	N int64  `json:"n"`
	I int64  `json:"i"`
	F string `json:"f"`
}

// snapAggGroup is one serialized partition group.
type snapAggGroup struct {
	Key   *string      `json:"key"` // encoded partition key; nil = the global group
	Count int64        `json:"count"`
	Ver   uint64       `json:"ver"`
	Vals  []snapAggVal `json:"vals"`
}

// snapAgg is the serialized Aggregator state: its groups. Instances
// carry no aggregate state — a restored instance that accepts is folded
// from its restored match buffer, like any other.
type snapAgg struct {
	Ver    uint64         `json:"ver"`
	Groups []snapAggGroup `json:"groups"`
}

// snapKey is one key's section of a keyed snapshot.
type snapKey struct {
	Key       string         `json:"key"` // encoded key value
	Shedding  bool           `json:"shedding"`
	Metrics   Metrics        `json:"metrics"`
	Instances []snapInstance `json:"instances"`
}

// snapshotFile is the snapshot document. A keyed runner's Metrics is
// the merge over Keys, whose sections are in first-occurrence order and
// share the Events and Nodes tables; its own Instances are empty.
type snapshotFile struct {
	Version      int            `json:"version"`
	Fingerprint  string         `json:"fingerprint"`
	Strategy     Strategy       `json:"strategy"`
	Done         bool           `json:"done"`
	Shedding     bool           `json:"shedding"`
	Metrics      Metrics        `json:"metrics"`
	Events       []snapEvent    `json:"events"`
	Nodes        []snapNode     `json:"nodes"`
	Instances    []snapInstance `json:"instances"`
	Agg          *snapAgg       `json:"agg,omitempty"`
	PartitionKey string         `json:"partitionKey,omitempty"`
	Keys         []snapKey      `json:"keys,omitempty"`
}

// WriteSnapshot serializes the runner's full execution state — live
// instances with their match buffers, the metrics (whose
// EventsProcessed doubles as the stream sequence counter), and the
// degradation state — so that a crashed or migrated stream can resume
// exactly where it left off via RestoreRunner. The snapshot embeds the
// automaton's fingerprint; it can only be restored onto an automaton
// compiled from the same pattern and schema.
//
// Snapshot between Step calls, never concurrently with one: the runner
// is single-goroutine by contract. Matches already emitted are not
// part of the state; after a restore the runner re-emits only what
// later events complete.
func (r *Runner) WriteSnapshot(w io.Writer) error {
	snap := snapshotFile{
		Version:     1,
		Fingerprint: r.a.Fingerprint(),
		Strategy:    r.cfg.strategy,
		Done:        r.done,
		Shedding:    r.shedding,
		Metrics:     r.metrics,
	}
	if r.cfg.agg != nil {
		snap.Agg = r.cfg.agg.snapshotState()
		snap.Version = 2
	}
	if r.keyed != nil {
		snap.Version = SnapshotVersion
		snap.PartitionKey = r.cfg.partitionKey
	}
	eventIDs := make(map[*event.Event]int)
	eventID := func(e *event.Event) int {
		if id, ok := eventIDs[e]; ok {
			return id
		}
		attrs := make([]string, len(e.Attrs))
		for i, v := range e.Attrs {
			attrs[i] = v.Encode()
		}
		id := len(snap.Events)
		snap.Events = append(snap.Events, snapEvent{Seq: e.Seq, Time: e.Time, Attrs: attrs})
		eventIDs[e] = id
		return id
	}
	// A written node is a DAG node on top of a written prefix.
	type nodeKey struct {
		n    *node
		prev int
	}
	nodeIDs := make(map[nodeKey]int)
	instances := func(s *Runner) []snapInstance {
		out := []snapInstance{}
		for _, c := range s.classes {
			s.eachPath(c.head, func(p []*node) bool {
				id := -1
				for j := len(p) - 1; j >= 0; j-- { // predecessors first: Prev < own index
					k := nodeKey{p[j], id}
					var ok bool
					if id, ok = nodeIDs[k]; !ok {
						id = len(snap.Nodes)
						snap.Nodes = append(snap.Nodes, snapNode{Var: p[j].varIdx, Event: eventID(p[j].ev), Prev: k.prev})
						nodeIDs[k] = id
					}
				}
				out = append(out, snapInstance{State: c.state, CurSet: c.curSet, Buf: id,
					MinT: c.minT, MaxT: c.maxT, PrevSetsMax: c.prevSetsMax})
				return true
			})
		}
		return out
	}
	snap.Instances = instances(r)
	if r.keyed != nil {
		snap.Keys = make([]snapKey, len(r.keyed.subs))
		for i, s := range r.keyed.subs {
			snap.Keys[i] = snapKey{Key: r.keyed.keys[i].Encode(), Shedding: s.shedding,
				Metrics: s.metrics, Instances: instances(s)}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// SnapshotBytes is WriteSnapshot into a fresh byte slice.
func (r *Runner) SnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreRunner reconstructs a Runner from a snapshot written by
// WriteSnapshot. The automaton must be structurally identical to the
// one the snapshot was taken from (checked via fingerprint), and the
// restored configuration must use the same event selection strategy
// and partition key (WithPartitionKey, or none); all other options
// (overload policy, filter, ...) may differ from the original run.
func RestoreRunner(a *automaton.Automaton, rd io.Reader, opts ...Option) (*Runner, error) {
	var snap snapshotFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d not supported (want at most %d)", snap.Version, SnapshotVersion)
	}
	if fp := a.Fingerprint(); snap.Fingerprint != fp {
		return nil, fmt.Errorf("engine: snapshot was taken from a different automaton (fingerprint %s, want %s)",
			snap.Fingerprint, fp)
	}
	r := New(a, opts...)
	if r.cfg.strategy != snap.Strategy {
		return nil, fmt.Errorf("engine: snapshot used strategy %s, restore requested %s", snap.Strategy, r.cfg.strategy)
	}
	if snap.PartitionKey != r.cfg.partitionKey {
		return nil, fmt.Errorf("engine: snapshot partition key %q, restore requested %q", snap.PartitionKey, r.cfg.partitionKey)
	}
	r.done = snap.Done
	r.shedding = snap.Shedding
	r.metrics = snap.Metrics

	events := make([]*event.Event, len(snap.Events))
	schema := a.Schema
	for i, se := range snap.Events {
		if len(se.Attrs) != schema.NumFields() {
			return nil, fmt.Errorf("engine: snapshot event %d has %d attributes, schema has %d",
				i, len(se.Attrs), schema.NumFields())
		}
		attrs := make([]event.Value, len(se.Attrs))
		for j, s := range se.Attrs {
			v, err := event.ParseValue(schema.Field(j).Type, s)
			if err != nil {
				return nil, fmt.Errorf("engine: snapshot event %d attribute %d: %w", i, j, err)
			}
			attrs[j] = v
		}
		events[i] = &event.Event{Seq: se.Seq, Time: se.Time, Attrs: attrs}
	}
	nodes := make([]*node, len(snap.Nodes))
	for i, sn := range snap.Nodes {
		if sn.Event < 0 || sn.Event >= len(events) || sn.Prev < -1 || sn.Prev >= i ||
			int(sn.Var) < 0 || int(sn.Var) >= a.NumVars() {
			return nil, fmt.Errorf("engine: snapshot node %d is corrupt", i)
		}
		n := &node{varIdx: sn.Var, ev: events[sn.Event]}
		if sn.Prev >= 0 {
			n.prev = nodes[sn.Prev]
		}
		nodes[i] = n
	}
	if err := r.restoreInstances(snap.Instances, nodes); err != nil {
		return nil, err
	}
	if k := r.keyed; k != nil {
		if k.err != nil {
			return nil, k.err
		}
		typ := schema.Field(k.attr).Type
		for i, sk := range snap.Keys {
			key, err := event.ParseValue(typ, sk.Key)
			if err != nil {
				return nil, fmt.Errorf("engine: snapshot key %d: %w", i, err)
			}
			if _, dup := k.index[key]; dup {
				return nil, fmt.Errorf("engine: snapshot key %d duplicates key %q", i, sk.Key)
			}
			s := k.sub(r, key)
			s.shedding, s.metrics = sk.Shedding, sk.Metrics
			if err := s.restoreInstances(sk.Instances, nodes); err != nil {
				return nil, fmt.Errorf("engine: snapshot key %d: %w", i, err)
			}
			r.clock = max(r.clock, s.clock)
		}
	}
	switch {
	case snap.Agg != nil && r.cfg.agg == nil:
		return nil, fmt.Errorf("engine: snapshot carries aggregation state but the restore configured no aggregator")
	case snap.Agg == nil && r.cfg.agg != nil:
		return nil, fmt.Errorf("engine: restore configured an aggregator but the snapshot has no aggregation state")
	case snap.Agg != nil:
		if err := r.cfg.agg.foldSection(snap.Agg, false); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restoreInstances loads one instance section of a snapshot onto r,
// each instance as a class of its own.
func (r *Runner) restoreInstances(sis []snapInstance, nodes []*node) error {
	for i, si := range sis {
		if int(si.State) < 0 || int(si.State) >= r.a.NumStates() || si.Buf < -1 || si.Buf >= len(nodes) {
			return fmt.Errorf("engine: snapshot instance %d is corrupt", i)
		}
		c := class{state: si.State, curSet: si.CurSet, vals: int32(len(r.vals)),
			minT: si.MinT, maxT: si.MaxT, prevSetsMax: si.PrevSetsMax, mult: 1}
		if si.Buf >= 0 {
			c.head, c.tail = nodes[si.Buf], nodes[si.Buf]
		}
		slots := r.plan.slots[c.state]
		r.vals = append(r.vals, make([]event.Value, len(slots))...)
		for n := c.head; n != nil; n = n.prev {
			c.first = n.ev.Seq
			for j, s := range slots {
				if int(n.varIdx) == s.v {
					r.vals[int(c.vals)+j] = n.ev.Attrs[s.attr]
				}
			}
		}
		r.classes = append(r.classes, c)
		// The stream resumes no earlier than the newest bound event.
		r.clock = max(r.clock, c.maxT)
	}
	r.recount()
	return nil
}

// snapshotState captures the aggregator's group state for
// WriteSnapshot.
func (ag *Aggregator) snapshotState() *snapAgg {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	sa := &snapAgg{Ver: ag.ver, Groups: make([]snapAggGroup, 0, len(ag.order))}
	for _, g := range ag.order {
		sg := snapAggGroup{Count: g.count, Ver: g.ver, Vals: make([]snapAggVal, len(g.vals))}
		if ag.plan.partAttr >= 0 {
			enc := g.keyEnc
			sg.Key = &enc
		}
		for i, v := range g.vals {
			sg.Vals[i] = snapAggVal{N: v.n, I: v.i, F: strconv.FormatFloat(v.f, 'g', -1, 64)}
		}
		sa.Groups = append(sa.Groups, sg)
	}
	return sa
}

// foldSection folds a snapshot aggregate section into the aggregator,
// validating it against the compiled plan. Restoring (merge false)
// refuses a key the aggregator already holds; merging folds a repeated
// key's slots under the plan's fold algebra. Both add the section's
// versions to the aggregator's, which for a restore into a freshly
// reset aggregator takes them as they are.
func (ag *Aggregator) foldSection(sa *snapAgg, merge bool) error {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	for i, sg := range sa.Groups {
		if (sg.Key == nil) != (ag.plan.partAttr < 0) || len(sg.Vals) != len(ag.plan.slots) || sg.Ver > sa.Ver {
			return fmt.Errorf("engine: snapshot aggregate group %d does not match the aggregation plan", i)
		}
		var keyEnc string
		if sg.Key != nil {
			keyEnc = *sg.Key
		}
		g := ag.groups[keyEnc]
		switch {
		case g == nil:
			g = &aggGroup{keyEnc: keyEnc, vals: make([]aggVal, len(sg.Vals))}
			if sg.Key != nil {
				k, err := event.ParseValue(ag.plan.partType, keyEnc)
				if err != nil {
					return fmt.Errorf("engine: snapshot aggregate group %d key: %w", i, err)
				}
				g.key = k
			}
			ag.groups[keyEnc] = g
			ag.order = append(ag.order, g)
		case !merge:
			return fmt.Errorf("engine: snapshot aggregate group %d duplicates key %q", i, keyEnc)
		}
		g.count += sg.Count
		g.ver += sg.Ver
		for j, sv := range sg.Vals {
			f, err := strconv.ParseFloat(sv.F, 64)
			if err != nil {
				return fmt.Errorf("engine: snapshot aggregate group %d slot %d: %w", i, j, err)
			}
			if sv.N == 0 {
				continue
			}
			if slot := &ag.plan.slots[j]; slot.isFloat {
				foldFloat(&g.vals[j], slot.fn, f, sv.N)
			} else {
				foldInt(&g.vals[j], slot.fn, sv.I, sv.N)
			}
		}
	}
	ag.ver += sa.Ver
	ag.wakeLocked()
	return nil
}

// RestoreRunnerBytes is RestoreRunner over an in-memory snapshot.
func RestoreRunnerBytes(a *automaton.Automaton, data []byte, opts ...Option) (*Runner, error) {
	return RestoreRunner(a, bytes.NewReader(data), opts...)
}
