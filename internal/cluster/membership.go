// Package cluster implements the partition-routed cluster tier: a
// static membership file assigns slices of a hashed keyspace to
// {leader, standby} sesd pairs, a router (see Router) splits ingest
// batches by partition key and fans them to the owning nodes, and
// per-partition match streams merge back into one deterministic
// stream. The paper's partition-ordered semantics make the partition
// key a semantics-preserving placement unit: events of one key meet
// only each other, so evaluating each key slice on its own node and
// merging emitted matches by (window start, sequence) reproduces the
// single-node stream byte for byte.
package cluster

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
)

// Ownership is one node's slice of the hashed keyspace: partition-key
// values hashing to slots in [Lo, Hi) belong to this node. A server
// configured with an Ownership rejects events outside its slice with
// a routable error, which is what makes node boundaries explicit and
// rebalancing possible.
type Ownership struct {
	// Key is the partition attribute name (must exist in the schema).
	Key string
	// Slots is the size of the hash ring the keyspace is divided into.
	Slots int
	// Lo and Hi bound the owned slot range, half-open [Lo, Hi).
	Lo, Hi int
}

// Validate checks the slice's internal consistency.
func (o *Ownership) Validate() error {
	switch {
	case o.Key == "":
		return fmt.Errorf("cluster: ownership requires a partition key")
	case o.Slots <= 0:
		return fmt.Errorf("cluster: ownership requires a positive slot count, got %d", o.Slots)
	case o.Lo < 0 || o.Hi > o.Slots || o.Lo >= o.Hi:
		return fmt.Errorf("cluster: owned slot range [%d,%d) is not a non-empty subrange of [0,%d)", o.Lo, o.Hi, o.Slots)
	}
	return nil
}

// Owns reports whether a slot falls in the owned range.
func (o *Ownership) Owns(slot int) bool { return slot >= o.Lo && slot < o.Hi }

// Slot hashes a partition-key value onto the ring. The hash is
// FNV-1a 64 over the value's kind tag and canonical encoding, so it
// is stable across processes, platforms and restarts — the property
// that lets router and nodes agree on placement without coordination.
func (o *Ownership) Slot(v event.Value) int { return SlotOf(v, o.Slots) }

// SlotOf hashes a partition-key value to a slot in [0, slots).
func SlotOf(v event.Value, slots int) int {
	h := fnv.New64a()
	h.Write([]byte{byte(v.Kind())})
	io.WriteString(h, v.Encode())
	return int(h.Sum64() % uint64(slots))
}

// Node is one sesd process in the membership: its base URL.
type Node struct {
	URL string
}

// Partition is one keyspace slice and the nodes serving it.
type Partition struct {
	ID      int
	Lo, Hi  int  // owned slot range, half-open
	Leader  Node // initial leader
	Standby Node // warm standby; URL empty when the partition has none
}

// Ownership returns the partition's slice as a server-side Ownership.
func (p Partition) Ownership(key string, slots int) *Ownership {
	return &Ownership{Key: key, Slots: slots, Lo: p.Lo, Hi: p.Hi}
}

// Membership is the parsed static cluster topology.
type Membership struct {
	// Key is the partition attribute events are hashed by.
	Key string
	// Slots is the hash ring size shared by every partition.
	Slots int
	// Partitions lists the keyspace slices in ascending slot order.
	Partitions []Partition
}

// PartitionFor returns the partition owning a slot, nil when no
// partition covers it (only possible on an invalid membership).
func (m *Membership) PartitionFor(slot int) *Partition {
	if i := m.partitionIndex(slot); i >= 0 {
		return &m.Partitions[i]
	}
	return nil
}

// partitionIndex is PartitionFor as a position in m.Partitions, -1
// when no partition covers the slot.
func (m *Membership) partitionIndex(slot int) int {
	i := sort.Search(len(m.Partitions), func(i int) bool { return m.Partitions[i].Hi > slot })
	if slot < 0 || i == len(m.Partitions) || m.Partitions[i].Lo > slot {
		return -1
	}
	return i
}

// Validate checks a membership's structural invariants — a key, a
// positive ring size, exact coverage of [0, Slots) by the partitions
// in order, unique ids and unique node addresses. Memberships built
// by ParseMembership are always valid; this guards hand-constructed
// ones (and keeps the router honest about what it assumes).
func (m *Membership) Validate() error {
	if m.Key == "" {
		return fmt.Errorf("cluster: membership has no partition key")
	}
	if m.Slots <= 0 {
		return fmt.Errorf("cluster: membership wants a positive slot count, got %d", m.Slots)
	}
	if len(m.Partitions) == 0 {
		return fmt.Errorf("cluster: membership has no partitions")
	}
	ids := map[int]bool{}
	addrs := map[string]bool{}
	next := 0
	for _, p := range m.Partitions {
		if ids[p.ID] {
			return fmt.Errorf("cluster: duplicate partition id %d", p.ID)
		}
		ids[p.ID] = true
		if p.Lo != next || p.Hi <= p.Lo || p.Hi > m.Slots {
			return fmt.Errorf("cluster: partition %d slots [%d,%d) do not continue coverage at slot %d within %d slots",
				p.ID, p.Lo, p.Hi, next, m.Slots)
		}
		next = p.Hi
		for _, u := range []string{p.Leader.URL, p.Standby.URL} {
			if u == "" {
				if p.Leader.URL == "" {
					return fmt.Errorf("cluster: partition %d has no leader", p.ID)
				}
				continue
			}
			if addrs[u] {
				return fmt.Errorf("cluster: node address %q serves twice", u)
			}
			addrs[u] = true
		}
	}
	if next != m.Slots {
		return fmt.Errorf("cluster: slots %d-%d are covered by no partition", next, m.Slots-1)
	}
	return nil
}

// Partition returns the partition with the given id, or nil.
func (m *Membership) Partition(id int) *Partition {
	for i := range m.Partitions {
		if m.Partitions[i].ID == id {
			return &m.Partitions[i]
		}
	}
	return nil
}

// lineErr renders a membership diagnostic anchored to its line.
func lineErr(line int, format string, args ...interface{}) error {
	return fmt.Errorf("cluster: membership line %d: %s", line, fmt.Sprintf(format, args...))
}

// ParseMembership parses a membership file. The format is
// line-oriented:
//
//	# comment
//	key ID
//	slots 16
//	partition 0 slots 0-7 leader http://a:8080 standby http://b:8080
//	partition 1 slots 8-15 leader http://c:8080
//
// `key` names the partition attribute, `slots` sizes the hash ring,
// and each `partition` line assigns one half-open-on-the-right,
// inclusive-as-written slot range ("0-7" owns slots 0..7) to a leader
// and an optional standby. Validation is strict and every diagnostic
// carries its line number: the ranges must cover [0, slots) exactly —
// no overlap, no gap — partition ids must be unique, and no node
// address may serve twice.
func ParseMembership(r io.Reader) (*Membership, error) {
	m := &Membership{}
	addrLine := map[string]int{}
	idLine := map[int]int{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "key":
			if len(fields) != 2 {
				return nil, lineErr(lineNo, "key takes exactly one attribute name")
			}
			if m.Key != "" {
				return nil, lineErr(lineNo, "duplicate key directive (already %q)", m.Key)
			}
			m.Key = fields[1]
		case "slots":
			if len(fields) != 2 {
				return nil, lineErr(lineNo, "slots takes exactly one count")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, lineErr(lineNo, "slots wants a positive integer, got %q", fields[1])
			}
			if m.Slots != 0 {
				return nil, lineErr(lineNo, "duplicate slots directive (already %d)", m.Slots)
			}
			m.Slots = n
		case "partition":
			p, err := parsePartitionLine(fields, lineNo)
			if err != nil {
				return nil, err
			}
			if prev, ok := idLine[p.ID]; ok {
				return nil, lineErr(lineNo, "duplicate partition id %d (first declared on line %d)", p.ID, prev)
			}
			idLine[p.ID] = lineNo
			for _, url := range []string{p.Leader.URL, p.Standby.URL} {
				if url == "" {
					continue
				}
				if prev, ok := addrLine[url]; ok {
					return nil, lineErr(lineNo, "node address %q already serves on line %d", url, prev)
				}
				addrLine[url] = lineNo
			}
			m.Partitions = append(m.Partitions, p)
		default:
			return nil, lineErr(lineNo, "unknown directive %q (want key, slots or partition)", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading membership: %w", err)
	}
	if m.Key == "" {
		return nil, fmt.Errorf("cluster: membership declares no key directive")
	}
	if m.Slots == 0 {
		return nil, fmt.Errorf("cluster: membership declares no slots directive")
	}
	if len(m.Partitions) == 0 {
		return nil, fmt.Errorf("cluster: membership declares no partitions")
	}
	sort.Slice(m.Partitions, func(i, j int) bool { return m.Partitions[i].Lo < m.Partitions[j].Lo })
	next := 0
	for _, p := range m.Partitions {
		switch {
		case p.Lo < next:
			return nil, fmt.Errorf("cluster: membership line %d: partition %d slots [%d,%d) overlap an earlier partition",
				idLine[p.ID], p.ID, p.Lo, p.Hi)
		case p.Lo > next:
			return nil, fmt.Errorf("cluster: membership line %d: slots %d-%d are covered by no partition",
				idLine[p.ID], next, p.Lo-1)
		case p.Hi > m.Slots:
			return nil, fmt.Errorf("cluster: membership line %d: partition %d slots [%d,%d) exceed the declared %d slots",
				idLine[p.ID], p.ID, p.Lo, p.Hi, m.Slots)
		}
		next = p.Hi
	}
	if next < m.Slots {
		return nil, fmt.Errorf("cluster: slots %d-%d are covered by no partition", next, m.Slots-1)
	}
	return m, nil
}

// parsePartitionLine parses one `partition <id> slots <lo>-<hi>
// leader <url> [standby <url>]` line.
func parsePartitionLine(fields []string, lineNo int) (Partition, error) {
	var p Partition
	if len(fields) < 6 {
		return p, lineErr(lineNo, "partition wants `partition <id> slots <lo>-<hi> leader <url> [standby <url>]`")
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil || id < 0 {
		return p, lineErr(lineNo, "partition id wants a non-negative integer, got %q", fields[1])
	}
	p.ID = id
	if fields[2] != "slots" {
		return p, lineErr(lineNo, "expected `slots`, got %q", fields[2])
	}
	lo, hi, ok := strings.Cut(fields[3], "-")
	if !ok {
		return p, lineErr(lineNo, "slot range wants `<lo>-<hi>`, got %q", fields[3])
	}
	p.Lo, err = strconv.Atoi(lo)
	if err != nil || p.Lo < 0 {
		return p, lineErr(lineNo, "slot range low bound wants a non-negative integer, got %q", lo)
	}
	last, err := strconv.Atoi(hi)
	if err != nil || last < p.Lo {
		return p, lineErr(lineNo, "slot range high bound wants an integer >= %d, got %q", p.Lo, hi)
	}
	p.Hi = last + 1 // written inclusive, stored half-open
	if fields[4] != "leader" {
		return p, lineErr(lineNo, "expected `leader`, got %q", fields[4])
	}
	if err := checkURL(fields[5]); err != nil {
		return p, lineErr(lineNo, "leader %v", err)
	}
	p.Leader = Node{URL: strings.TrimSuffix(fields[5], "/")}
	switch {
	case len(fields) == 6:
	case len(fields) == 8 && fields[6] == "standby":
		if err := checkURL(fields[7]); err != nil {
			return p, lineErr(lineNo, "standby %v", err)
		}
		p.Standby = Node{URL: strings.TrimSuffix(fields[7], "/")}
		if p.Standby.URL == p.Leader.URL {
			return p, lineErr(lineNo, "standby address %q duplicates the leader", p.Standby.URL)
		}
	default:
		return p, lineErr(lineNo, "trailing fields: want at most `standby <url>` after the leader")
	}
	return p, nil
}

// checkURL validates a node address.
func checkURL(s string) error {
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		return fmt.Errorf("address %q wants an http:// or https:// URL", s)
	}
	return nil
}

// LoadMembership parses the membership file at path.
func LoadMembership(path string) (*Membership, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	m, err := ParseMembership(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}
