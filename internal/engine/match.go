package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
)

// Binding is the set of events bound to one event variable in a
// matching substitution. Singleton variables hold exactly one event,
// group variables one or more, ordered chronologically.
type Binding struct {
	Var    string
	Group  bool
	Events []*event.Event
}

// Match is a matching substitution γ = {v1/e1, ..., vn/en}
// (Definition 2). Bindings appear in pattern variable order.
type Match struct {
	Bindings []Binding
	First    event.Time // minT(γ)
	Last     event.Time // time of the chronologically last event
}

// EventCount returns the total number of bound events.
func (m Match) EventCount() int {
	n := 0
	for _, b := range m.Bindings {
		n += len(b.Events)
	}
	return n
}

// Events returns all bound events ordered by sequence number.
func (m Match) Events() []*event.Event {
	var out []*event.Event
	for _, b := range m.Bindings {
		out = append(out, b.Events...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// String renders the substitution like the paper, e.g.
// "{c/e0, d/e2, p+/e3, p+/e8, b/e11}" with 0-based event sequence
// numbers, in chronological binding order.
func (m Match) String() string {
	type pair struct {
		label string
		seq   int
	}
	var pairs []pair
	for _, b := range m.Bindings {
		label := b.Var
		if b.Group {
			label += "+"
		}
		for _, e := range b.Events {
			pairs = append(pairs, pair{label + "/e" + fmt.Sprint(e.Seq), e.Seq})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].seq < pairs[j].seq })
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p.label
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// matchEvChunk and matchBindChunk size the bump arenas backing emitted
// matches. Segments handed out are never reclaimed (published matches
// own them forever); the chunks only batch what used to be two heap
// allocations per match into two per ~hundred matches or per τ.
const (
	matchEvChunk   = 512
	matchBindChunk = 128
)

// allocEvs cuts an n-element event slice from the match arena. The
// returned slice has cap n, so an (incorrect) append by a consumer
// copies instead of clobbering a neighbouring match.
func (r *Runner) allocEvs(n int) []*event.Event {
	if len(r.matchEvs) < n {
		c := matchEvChunk
		if n > c {
			c = n
		}
		r.matchEvs = make([]*event.Event, c)
	}
	s := r.matchEvs[:n:n]
	r.matchEvs = r.matchEvs[n:]
	return s
}

// allocBinds cuts an empty binding slice with cap n from the arena.
func (r *Runner) allocBinds(n int) []Binding {
	if len(r.matchBinds) < n {
		c := matchBindChunk
		if n > c {
			c = n
		}
		r.matchBinds = make([]Binding, c)
	}
	s := r.matchBinds[:0:n]
	r.matchBinds = r.matchBinds[n:]
	return s
}

// buildMatch materialises an instance's buffer, a path newest binding
// first, into a Match.
// The per-variable event slices of all bindings share one backing
// array sized in a counting pass and cut from the runner's match
// arena, so steady-state match construction allocates only when an
// arena chunk runs dry. Callers must treat Binding.Events as
// immutable — appending to one binding's slice would overwrite its
// neighbour. Chunks started more than τ before the event being consumed
// are left to their matches: through its current chunks the runner
// pins the events — and decoded blocks — of the matches cut from them.
func (r *Runner) buildMatch(path []*node, minT, maxT event.Time) Match {
	if event.Duration(r.clock-r.matchFrom) > r.a.Within {
		r.matchEvs, r.matchBinds, r.matchFrom = nil, nil, r.clock
	}
	nv := len(r.a.Vars)
	if cap(r.buildScratch) < nv {
		r.buildScratch = make([]int, nv)
	}
	counts := r.buildScratch[:nv]
	for i := range counts {
		counts[i] = 0
	}
	total, bound := 0, 0
	for _, n := range path {
		if counts[n.varIdx] == 0 {
			bound++
		}
		counts[n.varIdx]++
		total++
	}
	m := Match{First: minT, Last: maxT}
	backing := r.allocEvs(total)
	m.Bindings = r.allocBinds(bound)
	off := 0
	for v := 0; v < nv; v++ {
		c := counts[v]
		if c == 0 {
			continue
		}
		m.Bindings = append(m.Bindings, Binding{
			Var:    r.a.Vars[v].Name,
			Group:  r.a.Vars[v].Group,
			Events: backing[off : off+c],
		})
		// Repurpose the count as this variable's fill cursor (one past
		// its segment end): the path is newest-first, so filling each
		// segment back to front restores chronology.
		counts[v] = off + c
		off += c
	}
	for _, n := range path {
		counts[n.varIdx]--
		backing[counts[n.varIdx]] = n.ev
	}
	return m
}

// signature returns a canonical text form of the binding set, used for
// deduplication and subset tests.
func signature(m Match) string {
	var keys []string
	for _, b := range m.Bindings {
		for _, e := range b.Events {
			keys = append(keys, fmt.Sprintf("%s/%d", b.Var, e.Seq))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// Dedup removes duplicate matches (identical binding sets), keeping
// first occurrences in order. The brute-force baseline needs this when
// several sequence automata find the same substitution.
func Dedup(matches []Match) []Match {
	seen := make(map[string]bool, len(matches))
	out := matches[:0:0]
	for _, m := range matches {
		sig := signature(m)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, m)
	}
	return out
}

// FilterMaximal enforces condition 5 of Definition 2 (MAXIMAL mode
// with greedy quantifier) on a complete result set: a match is dropped
// when another match with the same start time contains a proper
// superset of its bindings. The operational algorithm already
// guarantees this property (divergent instances always differ in at
// least one binding), so this filter is a correctness guard; it
// returns the surviving matches in their original order.
//
// Input that is already ordered by start time — as Match and
// MatchPartitioned return it — is processed without the map-based
// grouping pass: same-start groups are contiguous runs, and singleton
// runs (the overwhelmingly common case) skip binding-set
// materialisation entirely.
func FilterMaximal(matches []Match) []Match {
	sorted := true
	for i := 1; i < len(matches); i++ {
		if matches[i-1].First > matches[i].First {
			sorted = false
			break
		}
	}
	drop := make([]bool, len(matches))
	any := false
	if sorted {
		for lo := 0; lo < len(matches); {
			hi := lo + 1
			for hi < len(matches) && matches[hi].First == matches[lo].First {
				hi++
			}
			if hi-lo > 1 {
				idxs := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					idxs = append(idxs, i)
				}
				any = dropSubsets(matches, idxs, drop) || any
			}
			lo = hi
		}
	} else {
		byStart := make(map[event.Time][]int)
		for i, m := range matches {
			byStart[m.First] = append(byStart[m.First], i)
		}
		for _, idxs := range byStart {
			if len(idxs) > 1 {
				any = dropSubsets(matches, idxs, drop) || any
			}
		}
	}
	if !any {
		return matches
	}
	out := matches[:0:0]
	for i, m := range matches {
		if !drop[i] {
			out = append(out, m)
		}
	}
	return out
}

// bindingKey identifies one bound event within a match: the variable
// it is bound to and the event's sequence number. A comparable struct
// rather than a formatted "var/seq" string: set operations over it
// allocate no per-event strings, and no separator convention can be
// confused by variable names containing '/'.
type bindingKey struct {
	Var string
	Seq int
}

// bindingSet is the set of (variable, event) bindings of a match: the
// identity Definition 2 gives it.
type bindingSet map[bindingKey]bool

// bindingsOf returns m's binding set.
func bindingsOf(m Match) bindingSet {
	ks := make(bindingSet, m.EventCount())
	for _, b := range m.Bindings {
		for _, e := range b.Events {
			ks[bindingKey{Var: b.Var, Seq: e.Seq}] = true
		}
	}
	return ks
}

// properSubset reports whether a is a proper subset of b.
func properSubset(a, b bindingSet) bool {
	if len(a) >= len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// dropSubsets marks matches (among idxs, which share a start time)
// whose binding set is a proper subset of another's. It reports
// whether anything was marked.
func dropSubsets(matches []Match, idxs []int, drop []bool) bool {
	keys := make([]bindingSet, len(idxs))
	for i, idx := range idxs {
		keys[i] = bindingsOf(matches[idx])
	}
	any := false
	for i, idx := range idxs {
		for j := range idxs {
			if i != j && properSubset(keys[i], keys[j]) {
				drop[idx] = true
				any = true
				break
			}
		}
	}
	return any
}

// bufferString renders a buffer, a path newest binding first, like the
// paper's Figure 6, oldest binding first.
func (r *Runner) bufferString(path []*node) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[len(path)-1-i] = fmt.Sprintf("%s/e%d", r.a.Vars[n.varIdx], n.ev.Seq)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
