// Package et defines the ASTRA-sim execution trace (ET) — the paper's
// common trace format that decouples parallelization strategies from the
// simulator frontend (Section IV-A). A trace holds one dependency graph per
// NPU; nodes are compute, memory, or communication operations, and edges
// encode both intra-layer ordering and the parallelization strategy itself.
// Because each NPU has an independent graph, NPUs may execute different
// operations at the same time, which is what enables pipeline parallelism
// and other asymmetric strategies.
//
// Trace.Plans validates a trace in one compile pass per distinct node list,
// returning each list as an immutable Plan addressed by list position.
// Validation and the execution engine both read plans, so node IDs are
// resolved in this package only.
//
// A trace describes one training iteration. Trace.Iterations asks the
// execution engine to run it several times back to back; the node lists
// are never copied per iteration.
//
// A send's or receive's Peer is an offset from its graph's NPU, so ranks
// whose lists differ only in absolute peers share one list: etgen's
// pipeline generators hand every rank of a stage class the same list.
// Plan.Peer is the one place a peer is resolved. The JSON format holds
// ranks: Decode turns each into an offset and Encode turns it back.
//
// Traces are compact: a graph holds its nodes by value in one slice, and
// graphs that share a list share one slice. The compile pass resolves IDs
// through a table when they are dense (a span of at most twice the list's
// length) and through a map only when they are sparse, and it carves a
// plan's arrays from one allocation. Point-to-point matching keeps no
// record per rank: each plan indexes its sends and receives once, by peer
// field and tag, and each channel group (a sender's list, a receiver's
// list and the peer fields between them) is compared once, however many
// rank pairs share it.
//
// A node is 112 bytes on 64-bit platforms. Its four enums (NodeKind,
// CollectiveType, MemOp, MemLocation) are one byte each, with zero meaning
// unset, and JSON carries them by name through MarshalText and
// UnmarshalText: the names are those traces have always used, an unknown
// name is a decode error, and an unset or out-of-range value is a
// validation error.
package et

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// NodeKind is the ET node type of Fig. 1(b), with communication split into
// collective and point-to-point flavours. Like the other trace enums it is
// one byte whose zero value means unset; JSON carries it by name ("COMP",
// "MEM", "COMM_COLL", "COMM_SEND", "COMM_RECV").
type NodeKind uint8

// Node kinds.
const (
	KindCompute NodeKind = iota + 1
	KindMemory
	KindComm
	KindSend
	KindRecv
)

var nodeKinds = newEnum[NodeKind]("node kind", "", "COMP", "MEM", "COMM_COLL", "COMM_SEND", "COMM_RECV")

func (k NodeKind) String() string { return nodeKinds.name(k) }

// MarshalText returns k's JSON name in bytes that every call shares:
// callers must not modify them.
func (k NodeKind) MarshalText() ([]byte, error)  { return nodeKinds.marshal(k) }
func (k *NodeKind) UnmarshalText(b []byte) error { return nodeKinds.unmarshal(k, b) }

// CollectiveType names a collective pattern in trace metadata (Fig. 2): a
// one-byte enum, zero when unset, carried in JSON as "ALL_REDUCE",
// "ALL_GATHER", "REDUCE_SCATTER" or "ALL_TO_ALL".
type CollectiveType uint8

// Collective types (Fig. 2).
const (
	CollAllReduce CollectiveType = iota + 1
	CollAllGather
	CollReduceScatter
	CollAllToAll
)

var collectiveTypes = newEnum[CollectiveType]("collective type", "", "ALL_REDUCE", "ALL_GATHER", "REDUCE_SCATTER", "ALL_TO_ALL")

func (c CollectiveType) String() string { return collectiveTypes.name(c) }

// MarshalText returns c's JSON name in bytes that every call shares:
// callers must not modify them.
func (c CollectiveType) MarshalText() ([]byte, error)  { return collectiveTypes.marshal(c) }
func (c *CollectiveType) UnmarshalText(b []byte) error { return collectiveTypes.unmarshal(c, b) }

// MemOp distinguishes memory-node loads from stores: a one-byte enum, zero
// when unset, carried in JSON as "LOAD" or "STORE".
type MemOp uint8

// Memory operations.
const (
	MemLoad MemOp = iota + 1
	MemStore
)

var memOps = newEnum[MemOp]("memory op", "", "LOAD", "STORE")

func (o MemOp) String() string { return memOps.name(o) }

// MarshalText returns o's JSON name in bytes that every call shares:
// callers must not modify them.
func (o MemOp) MarshalText() ([]byte, error)  { return memOps.marshal(o) }
func (o *MemOp) UnmarshalText(b []byte) error { return memOps.unmarshal(o, b) }

// MemLocation says which memory tier a memory node touches: a one-byte
// enum, zero when unset, carried in JSON as "LOCAL" or "REMOTE".
type MemLocation uint8

// Memory locations.
const (
	MemLocal MemLocation = iota + 1
	MemRemote
)

var memLocations = newEnum[MemLocation]("memory location", "", "LOCAL", "REMOTE")

func (l MemLocation) String() string { return memLocations.name(l) }

// MarshalText returns l's JSON name in bytes that every call shares:
// callers must not modify them.
func (l MemLocation) MarshalText() ([]byte, error)  { return memLocations.marshal(l) }
func (l *MemLocation) UnmarshalText(b []byte) error { return memLocations.unmarshal(l, b) }

// enum is the name table of a one-byte trace enum: names[v] is value v's
// JSON name, and names[0], the unset value's, is "". Unset round-trips as
// the empty name, so that validation reports it; any other name outside
// the table is a decode error, and a value outside it an encode error.
type enum[T ~uint8] struct {
	what  string // the type as errors name it
	names []string
	text  [][]byte // names' bytes, built once and shared by every MarshalText
}

func newEnum[T ~uint8](what string, names ...string) enum[T] {
	text := make([][]byte, len(names))
	for i, name := range names {
		text[i] = []byte(name)
	}
	return enum[T]{what: what, names: names, text: text}
}

// name returns v's JSON name, or T(v) for a value outside the table.
func (e enum[T]) name(v T) string {
	if int(v) < len(e.names) {
		return e.names[v]
	}
	return fmt.Sprintf("%T(%d)", v, uint8(v))
}

func (e enum[T]) marshal(v T) ([]byte, error) {
	if int(v) >= len(e.names) {
		return nil, fmt.Errorf("unknown %s %q", e.what, e.name(v))
	}
	return e.text[v], nil
}

func (e enum[T]) unmarshal(v *T, b []byte) error {
	for i, name := range e.names {
		if string(b) == name {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q", e.what, b)
}

// GroupRef describes a communicator group in trace metadata as logical
// spans over physical topology dimensions (see collective.Span). An empty
// Spans list means "all dimensions in full" (the whole machine).
type GroupRef struct {
	Spans []SpanRef `json:"spans,omitempty"`
}

// SpanRef is the serialized form of a logical group span.
type SpanRef struct {
	Phys   int `json:"phys"`
	K      int `json:"k"`
	Stride int `json:"stride"`
}

// Node is one ET operation. Metadata fields are meaningful per kind:
//
//	COMP:      FLOPs, MemBytes (roofline inputs)
//	MEM:       MemOp, MemLocation, TensorBytes
//	COMM_COLL: Collective, CommBytes, Group, InSwitch
//	COMM_SEND: Peer, CommBytes, Tag
//	COMM_RECV: Peer, CommBytes, Tag
//
// The one-byte enums and InSwitch sit together, so they share one word
// and a node is 112 bytes on 64-bit platforms, with three pointers (Name,
// Deps, Group) for the GC to scan. JSON encodes fields in this order.
type Node struct {
	ID          int            `json:"id"`
	Name        string         `json:"name,omitempty"`
	Kind        NodeKind       `json:"kind"`
	MemOp       MemOp          `json:"mem_op,omitempty"`
	MemLocation MemLocation    `json:"mem_location,omitempty"`
	Collective  CollectiveType `json:"collective,omitempty"`
	// InSwitch requests the collective be fused into the disaggregated
	// memory fabric (gather-on-load / reduce-on-store, Section IV-D.3).
	InSwitch bool `json:"in_switch,omitempty"`
	// Deps lists node IDs (same NPU graph) that must complete first.
	Deps []int `json:"deps,omitempty"`

	// Compute metadata.
	FLOPs    float64 `json:"flops,omitempty"`
	MemBytes int64   `json:"mem_bytes,omitempty"`

	// Memory metadata.
	TensorBytes int64 `json:"tensor_bytes,omitempty"`

	// Communication metadata.
	CommBytes int64     `json:"comm_bytes,omitempty"`
	Group     *GroupRef `json:"group,omitempty"`
	// Peer is the offset from the graph's NPU to the rank a send goes to
	// or a receive comes from; Plan.Peer resolves it. JSON holds the rank.
	Peer int `json:"peer,omitempty"`
	Tag  int `json:"tag,omitempty"`
}

// Graph is one NPU's execution trace. Nodes are held by value, so a list
// is one allocation however long it is.
type Graph struct {
	NPU   int    `json:"npu"`
	Nodes []Node `json:"nodes"`
}

// Trace is a whole-machine execution trace: one graph per NPU.
type Trace struct {
	// Name labels the workload (e.g. "GPT-3/MP16xDP32").
	Name string `json:"name,omitempty"`
	// NumNPUs is the machine size the trace was generated for.
	NumNPUs int      `json:"num_npus"`
	Graphs  []*Graph `json:"graphs"`
	// Iterations is how many times each NPU runs its graph back to back,
	// with a synchronous boundary: an NPU starts its next iteration when
	// the last node of its current one completes. Zero means one. It is
	// not serialized.
	Iterations int `json:"-"`
}

// MaxListLen is the most nodes, and the most dependencies, one node list
// may hold: a Plan addresses both as int32.
const MaxListLen = math.MaxInt32

// Plan is one distinct node list, validated and compiled for execution.
// Nodes are addressed by their position in the list, so nothing downstream
// resolves a node ID or reads Deps. A plan is immutable and shared by every
// graph that uses its list; the slices its methods return are shared too,
// and callers must not modify them.
type Plan struct {
	nodes []Node
	// The dependents of position p are deps[off[p]:off[p+1]], in list
	// order, one entry per dependency edge.
	off, deps []int32
	indeg     []int32
	// idx holds the roots, then the positions of the list's sends, then
	// those of its receives, the last two each ordered by (Peer, Tag,
	// position): the nodes of one peer field are a run, in the order their
	// channels match them. One slice and two counts keep a plan at 136
	// bytes.
	idx            []int32
	nroots, nsends int32
}

// Nodes returns the node list in declaration order.
func (p *Plan) Nodes() []Node { return p.nodes }

// Dependents returns the positions that depend on position pos, one entry
// per dependency edge: a duplicated dep appears twice, matching the
// in-degree count.
func (p *Plan) Dependents(pos int32) []int32 { return p.deps[p.off[pos]:p.off[pos+1]] }

// InDegrees returns each position's initial in-degree: its dependency count.
func (p *Plan) InDegrees() []int32 { return p.indeg }

// Roots returns the positions with no dependencies in ascending-ID order.
func (p *Plan) Roots() []int32 { return p.idx[:p.nroots:p.nroots] }

// sends returns the positions of the list's sends in (Peer, Tag, position)
// order.
func (p *Plan) sends() []int32 { return p.idx[p.nroots : p.nroots+p.nsends] }

// recvs returns the positions of the list's receives in (Peer, Tag,
// position) order.
func (p *Plan) recvs() []int32 { return p.idx[p.nroots+p.nsends:] }

// Peer returns the rank that a send or receive node of the plan exchanges
// with when rank issues it.
func (p *Plan) Peer(n *Node, rank int) int { return rank + n.Peer }

// HasP2P reports whether the list holds a send or a receive.
func (p *Plan) HasP2P() bool { return len(p.idx) > int(p.nroots) }

// checkPeers returns an error for the first send or receive, in list
// order, whose resolved peer is not a rank below npus when rank issues it.
// The lowest and highest peer fields, the ends of sends and recvs, decide
// in O(1) whether there is one: rank + f is a rank below npus exactly when
// f lies in [-rank, npus-rank), since an f past that overflows only to a
// negative sum.
func (p *Plan) checkPeers(rank, npus int) error {
	lo, hi := math.MaxInt, math.MinInt
	for _, part := range [2][]int32{p.sends(), p.recvs()} {
		if len(part) > 0 {
			lo, hi = min(lo, p.nodes[part[0]].Peer), max(hi, p.nodes[part[len(part)-1]].Peer)
		}
	}
	if lo >= -rank && hi < npus-rank {
		return nil
	}
	for k := range p.nodes {
		n := &p.nodes[k]
		if n.Kind != KindSend && n.Kind != KindRecv {
			continue
		}
		if peer := p.Peer(n, rank); peer < 0 || peer >= npus {
			if n.Kind == KindSend {
				return fmt.Errorf("et: npu %d sends to out-of-range peer %d", rank, peer)
			}
			return fmt.Errorf("et: npu %d receives from out-of-range peer %d", rank, peer)
		}
	}
	return nil
}

// peerRun returns the run of positions ps, which are ordered like sends
// and recvs, whose nodes have the given peer field.
func (p *Plan) peerRun(ps []int32, peer int) []int32 {
	lo := sort.Search(len(ps), func(k int) bool { return p.nodes[ps[k]].Peer >= peer })
	hi := sort.Search(len(ps), func(k int) bool { return p.nodes[ps[k]].Peer > peer })
	return ps[lo:hi]
}

// tagLen returns how many of the leading positions ps hold tag.
func (p *Plan) tagLen(ps []int32, tag int) int {
	n := 0
	for n < len(ps) && p.nodes[ps[n]].Tag == tag {
		n++
	}
	return n
}

// idIndex resolves one list's node IDs to list positions. IDs whose span
// is at most twice the list's length, as every generator produces, go
// through a table indexed by ID - min; sparser IDs, which JSON or convert
// may carry, go through a map, since a table over an arbitrary span could
// be unbounded.
type idIndex struct {
	min int
	// table holds position+1 per ID - min, 0 where no node has that ID.
	table []int32
	m     map[int]int32
}

func newIDIndex(nodes []Node) idIndex {
	if len(nodes) == 0 {
		return idIndex{}
	}
	lo, hi := nodes[0].ID, nodes[0].ID
	for i := range nodes {
		lo, hi = min(lo, nodes[i].ID), max(hi, nodes[i].ID)
	}
	// The span is hi - lo + 1, taken in uint64 so that IDs at both ends of
	// int cannot overflow it.
	if d := uint64(hi) - uint64(lo); d < 2*uint64(len(nodes)) {
		return idIndex{min: lo, table: make([]int32, d+1)}
	}
	return idIndex{m: make(map[int]int32, len(nodes))}
}

// add records that id is at position pos; it reports false when another
// node already has id.
func (x *idIndex) add(id int, pos int32) bool {
	if x.m != nil {
		if _, dup := x.m[id]; dup {
			return false
		}
		x.m[id] = pos
		return true
	}
	e := &x.table[uint64(id)-uint64(x.min)]
	if *e != 0 {
		return false
	}
	*e = pos + 1
	return true
}

// lookup returns the position of id.
func (x *idIndex) lookup(id int) (int32, bool) {
	if x.m != nil {
		q, ok := x.m[id]
		return q, ok
	}
	off := uint64(id) - uint64(x.min)
	if off >= uint64(len(x.table)) || x.table[off] == 0 {
		return 0, false
	}
	return x.table[off] - 1, true
}

// compile validates one node list and builds its plan. Node IDs need not
// be dense or ascending; this is the one place they are resolved to list
// positions. Errors come in list order: the node count and duplicate IDs
// first, then the dependency count, then each node's dependencies and
// metadata, then cycles. The plan's arrays, its send and receive index
// among them, are carved from one allocation, and the pass's scratch from
// another.
func compile(npu int, nodes []Node) (*Plan, error) {
	n := len(nodes)
	if n > MaxListLen {
		return nil, fmt.Errorf("et: npu %d has %d nodes; a list holds at most %d", npu, n, MaxListLen)
	}
	ids := newIDIndex(nodes)
	edges, nroots, nsends, nrecvs := 0, 0, 0, 0
	for i := range nodes {
		nd := &nodes[i]
		if !ids.add(nd.ID, int32(i)) {
			return nil, fmt.Errorf("et: npu %d has duplicate node id %d", npu, nd.ID)
		}
		edges += len(nd.Deps)
		if len(nd.Deps) == 0 {
			nroots++
		}
		switch nd.Kind {
		case KindSend:
			nsends++
		case KindRecv:
			nrecvs++
		}
	}
	if edges > MaxListLen {
		return nil, fmt.Errorf("et: npu %d has %d dependencies; a list holds at most %d", npu, edges, MaxListLen)
	}
	nidx := nroots + nsends + nrecvs
	buf := make([]int32, 2*n+1+nidx+edges)
	p := &Plan{nodes: nodes, nroots: int32(nroots), nsends: int32(nsends)}
	p.off, buf = buf[:n+1:n+1], buf[n+1:]
	p.indeg, buf = buf[:n:n], buf[n:]
	p.idx, p.deps = buf[:nidx:nidx], buf[nidx:]
	roots, sends, recvs := p.idx[:0:nroots], p.idx[nroots:nroots:nroots+nsends], p.idx[nroots+nsends:nroots+nsends]
	// depPos holds every node's dependencies as list positions, node after
	// node, so each ID is resolved once; next and queue serve the fill and
	// the cycle check below.
	scratch := make([]int32, edges+2*n)
	depPos, next, queue := scratch[:0:edges], scratch[edges:edges+n], scratch[edges+n:edges+n]
	for i := range nodes {
		nd := &nodes[i]
		for _, d := range nd.Deps {
			q, ok := ids.lookup(d)
			if !ok {
				return nil, fmt.Errorf("et: npu %d node %d depends on unknown node %d", npu, nd.ID, d)
			}
			if d == nd.ID {
				return nil, fmt.Errorf("et: npu %d node %d depends on itself", npu, nd.ID)
			}
			depPos = append(depPos, q)
			p.off[q+1]++
		}
		if err := nd.validateMeta(); err != nil {
			return nil, fmt.Errorf("et: npu %d node %d: %w", npu, nd.ID, err)
		}
		p.indeg[i] = int32(len(nd.Deps))
		if len(nd.Deps) == 0 {
			roots = append(roots, int32(i))
		}
		switch nd.Kind {
		case KindSend:
			sends = append(sends, int32(i))
		case KindRecv:
			recvs = append(recvs, int32(i))
		}
	}
	for q := 0; q < n; q++ {
		p.off[q+1] += p.off[q]
	}
	// Fill the dependents in list order; node i's indeg[i] dependency
	// positions are next on depPos.
	copy(next, p.off[:n]) // next free slot per position
	for i, k := range p.indeg {
		for _, q := range depPos[:k] {
			p.deps[next[q]] = int32(i)
			next[q]++
		}
		depPos = depPos[k:]
	}
	// Kahn's algorithm: the list is acyclic when every position drains.
	deg := next
	copy(deg, p.indeg)
	queue = append(queue, roots...)
	for h := 0; h < len(queue); h++ {
		for _, c := range p.Dependents(queue[h]) {
			deg[c]--
			if deg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("et: npu %d graph has a dependency cycle", npu)
	}
	slices.SortFunc(roots, func(a, b int32) int { return cmp.Compare(nodes[a].ID, nodes[b].ID) })
	byChannel := func(a, b int32) int {
		if c := cmp.Compare(nodes[a].Peer, nodes[b].Peer); c != 0 {
			return c
		}
		if c := cmp.Compare(nodes[a].Tag, nodes[b].Tag); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	slices.SortFunc(sends, byChannel)
	slices.SortFunc(recvs, byChannel)
	return p, nil
}

// validateMeta checks a node's kind-specific metadata. A peer is checked
// against the machine once the whole trace has compiled.
func (n *Node) validateMeta() error {
	switch n.Kind {
	case KindCompute:
		if n.FLOPs < 0 || n.MemBytes < 0 {
			return fmt.Errorf("compute node with negative work")
		}
	case KindMemory:
		if n.MemOp != MemLoad && n.MemOp != MemStore {
			return fmt.Errorf("memory node needs mem_op LOAD or STORE, got %q", n.MemOp)
		}
		if n.MemLocation != MemLocal && n.MemLocation != MemRemote {
			return fmt.Errorf("memory node needs mem_location LOCAL or REMOTE, got %q", n.MemLocation)
		}
		if n.TensorBytes <= 0 {
			return fmt.Errorf("memory node needs positive tensor_bytes")
		}
	case KindComm:
		switch n.Collective {
		case CollAllReduce, CollAllGather, CollReduceScatter, CollAllToAll:
		default:
			return fmt.Errorf("collective node has unknown type %q", n.Collective)
		}
		if n.CommBytes <= 0 {
			return fmt.Errorf("collective node needs positive comm_bytes")
		}
	case KindSend, KindRecv:
		if n.CommBytes <= 0 {
			return fmt.Errorf("p2p node needs positive comm_bytes")
		}
	default:
		return fmt.Errorf("unknown node kind %q", n.Kind)
	}
	return nil
}

// listKey identifies a node list by its first slot's address and its
// length: graphs that share one list (etgen's symmetric traces hand every
// rank the same slice) have equal keys, lists that merely start with the
// same node do not.
type listKey struct {
	first *Node
	n     int
}

// Validate checks the whole trace; see Plans.
func (t *Trace) Validate() error {
	_, err := t.Plans()
	return err
}

// Plans validates the whole trace and compiles it: per-list invariants, one
// graph per NPU rank, and point-to-point send/recv matching across graphs
// (every send must have a matching recv at the peer with the same tag and
// size, and vice versa) — mismatched P2P nodes would deadlock the
// simulation. It returns each graph's plan, indexed like Graphs. Graphs
// that share one node list share one plan, so per-list work runs once per
// distinct list rather than once per rank, and a graph that shares the
// previous graph's list takes its plan without a lookup.
func (t *Trace) Plans() ([]*Plan, error) {
	if t.NumNPUs <= 0 {
		return nil, fmt.Errorf("et: trace needs a positive NPU count")
	}
	if len(t.Graphs) != t.NumNPUs {
		return nil, fmt.Errorf("et: trace has %d graphs for %d NPUs", len(t.Graphs), t.NumNPUs)
	}
	seen := make([]bool, t.NumNPUs)
	plans := make([]*Plan, len(t.Graphs))
	shared := make(map[listKey]*Plan)
	var prev listKey
	for i, g := range t.Graphs {
		if g == nil {
			return nil, fmt.Errorf("et: trace has a nil graph")
		}
		if g.NPU < 0 || g.NPU >= t.NumNPUs {
			return nil, fmt.Errorf("et: graph for out-of-range npu %d", g.NPU)
		}
		if seen[g.NPU] {
			return nil, fmt.Errorf("et: duplicate graph for npu %d", g.NPU)
		}
		seen[g.NPU] = true
		key := listKey{n: len(g.Nodes)}
		if key.n > 0 {
			key.first = &g.Nodes[0]
		}
		if i > 0 && key == prev { // consecutive ranks mostly share a list
			plans[i] = plans[i-1]
			continue
		}
		p := shared[key]
		if p == nil {
			var err error
			if p, err = compile(g.NPU, g.Nodes); err != nil {
				return nil, err
			}
			shared[key] = p
		}
		plans[i], prev = p, key
	}
	if err := t.matchP2P(plans); err != nil {
		return nil, err
	}
	return plans, nil
}

// groupKey names a channel group: the sender's plan, the receiver's plan
// and the send peer field, whose negation is the receive peer field. Every
// rank pair that instantiates a group, one pair per rank of a shared list,
// shares its verdict.
type groupKey struct {
	send, recv *Plan
	peer       int
}

// p2pFault is a channel group's first faulty channel: its lowest tag with
// no send, with more or fewer sends than receives, or with a send and a
// receive, paired in list order, of different sizes. The zero p2pFault is
// a group without fault.
type p2pFault struct {
	bad                bool
	tag                int
	sends, recvs       int
	sendSize, recvSize int64
}

// err is f's error on the channels from src to dst.
func (f *p2pFault) err(src, dst int) error {
	switch {
	case f.sends == 0:
		return fmt.Errorf("et: %d recvs with no send for %d->%d tag %d", f.recvs, src, dst, f.tag)
	case f.sends != f.recvs:
		return fmt.Errorf("et: %d sends but %d recvs for %d->%d tag %d", f.sends, f.recvs, src, dst, f.tag)
	}
	return fmt.Errorf("et: size mismatch on %d->%d tag %d: send %d vs recv %d", src, dst, f.tag, f.sendSize, f.recvSize)
}

// matchGroup compares one channel group, a's sends and b's receives of
// one peer field each, both in (Tag, position) order, tag by tag from the
// lowest, and returns its first faulty channel.
func matchGroup(a *Plan, sends []int32, b *Plan, recvs []int32) p2pFault {
	for len(sends) > 0 || len(recvs) > 0 {
		tag := math.MaxInt
		if len(sends) > 0 {
			tag = a.nodes[sends[0]].Tag
		}
		if len(recvs) > 0 {
			tag = min(tag, b.nodes[recvs[0]].Tag)
		}
		ns, nr := a.tagLen(sends, tag), b.tagLen(recvs, tag)
		if ns == 0 || ns != nr {
			return p2pFault{bad: true, tag: tag, sends: ns, recvs: nr}
		}
		for k := 0; k < ns; k++ {
			if s, r := a.nodes[sends[k]].CommBytes, b.nodes[recvs[k]].CommBytes; s != r {
				return p2pFault{bad: true, tag: tag, sends: ns, recvs: nr, sendSize: s, recvSize: r}
			}
		}
		sends, recvs = sends[ns:], recvs[nr:]
	}
	return p2pFault{}
}

// matchP2P matches sends against receives, once per channel group rather
// than once per rank. A (src, dst) pair's channels form one group: the
// sender's plan, the receiver's plan, the send peer field dst-src and the
// receive peer field src-dst. The walk visits each rank once and checks
// its peer range in O(1). Each run of one peer field among the rank's
// sends is a group, compared once against the receiver's run of the
// negated field, and its verdict serves every rank pair of the group. Each
// run among its receives whose sender holds no matching run is a group
// without sends. A faulty group carries its lowest faulty tag, so the
// lowest faulty (src, dst, tag) channel is the one reported.
func (t *Trace) matchP2P(plans []*Plan) error {
	if !slices.ContainsFunc(plans, (*Plan).HasP2P) {
		return nil
	}
	byNPU := make([]*Plan, t.NumNPUs)
	for i, g := range t.Graphs {
		byNPU[g.NPU] = plans[i]
	}
	verdicts := make(map[groupKey]p2pFault)
	var worst p2pFault // on the lowest faulty pair, src -> dst
	src, dst := 0, 0
	report := func(f p2pFault, s, d int) {
		if f.bad && (!worst.bad || s < src || s == src && d < dst) {
			worst, src, dst = f, s, d
		}
	}
	for i, g := range t.Graphs {
		p, rank := plans[i], g.NPU
		if err := p.checkPeers(rank, t.NumNPUs); err != nil {
			return err
		}
		for rest := p.sends(); len(rest) > 0; {
			run := p.peerRun(rest, p.nodes[rest[0]].Peer)
			rest = rest[len(run):]
			f, to := p.nodes[run[0]].Peer, p.Peer(&p.nodes[run[0]], rank)
			key := groupKey{p, byNPU[to], f}
			v, ok := verdicts[key]
			if !ok {
				v = matchGroup(p, run, key.recv, key.recv.peerRun(key.recv.recvs(), -f))
				verdicts[key] = v
			}
			report(v, rank, to)
		}
		for rest := p.recvs(); len(rest) > 0; {
			run := p.peerRun(rest, p.nodes[rest[0]].Peer)
			rest = rest[len(run):]
			f, from := p.nodes[run[0]].Peer, p.Peer(&p.nodes[run[0]], rank)
			if s := byNPU[from]; len(s.peerRun(s.sends(), -f)) == 0 {
				report(matchGroup(s, nil, p, run), from, rank)
			}
		}
	}
	if worst.bad {
		return worst.err(src, dst)
	}
	return nil
}

// NodeCount returns the total number of nodes across all graphs.
func (t *Trace) NodeCount() int {
	n := 0
	for _, g := range t.Graphs {
		n += len(g.Nodes)
	}
	return n
}

// Encode writes the trace as JSON, with each send's and receive's peer as
// a rank. A list that holds one is copied for each graph that holds it, to
// write that graph's ranks; every other list is written as it is, so a
// shared list without point-to-point nodes is never copied.
func (t *Trace) Encode(w io.Writer) error {
	out := *t
	out.Graphs = slices.Clone(t.Graphs)
	for i, g := range out.Graphs {
		if g != nil && slices.ContainsFunc(g.Nodes, isP2P) {
			nodes := slices.Clone(g.Nodes)
			shiftPeers(nodes, g.NPU)
			out.Graphs[i] = &Graph{NPU: g.NPU, Nodes: nodes}
		}
	}
	return json.NewEncoder(w).Encode(&out)
}

// isP2P reports whether n is a send or a receive.
func isP2P(n Node) bool { return n.Kind == KindSend || n.Kind == KindRecv }

// shiftPeers adds by to the peer of every send and receive in nodes.
func shiftPeers(nodes []Node, by int) {
	for k := range nodes {
		if isP2P(nodes[k]) {
			nodes[k].Peer += by
		}
	}
}

// Decode reads one trace document from JSON, turns each send's and
// receive's peer from a rank into an offset from its graph's NPU, and
// validates the trace. Anything but whitespace after the document is an
// error.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("et: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("et: decode: data after the trace document")
	}
	for _, g := range t.Graphs {
		if g != nil {
			shiftPeers(g.Nodes, -g.NPU)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
