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
// Validation, Repeat and the execution engine all read plans, so node IDs
// are resolved in this package only.
package et

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// NodeKind is the ET node type of Fig. 1(b), with communication split into
// collective and point-to-point flavours.
type NodeKind string

// Node kinds.
const (
	KindCompute NodeKind = "COMP"
	KindMemory  NodeKind = "MEM"
	KindComm    NodeKind = "COMM_COLL"
	KindSend    NodeKind = "COMM_SEND"
	KindRecv    NodeKind = "COMM_RECV"
)

// CollectiveType names a collective pattern in trace metadata.
type CollectiveType string

// Collective types (Fig. 2).
const (
	CollAllReduce     CollectiveType = "ALL_REDUCE"
	CollAllGather     CollectiveType = "ALL_GATHER"
	CollReduceScatter CollectiveType = "REDUCE_SCATTER"
	CollAllToAll      CollectiveType = "ALL_TO_ALL"
)

// MemOp distinguishes memory-node loads from stores.
type MemOp string

// Memory operations.
const (
	MemLoad  MemOp = "LOAD"
	MemStore MemOp = "STORE"
)

// MemLocation says which memory tier a memory node touches.
type MemLocation string

// Memory locations.
const (
	MemLocal  MemLocation = "LOCAL"
	MemRemote MemLocation = "REMOTE"
)

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
type Node struct {
	ID   int      `json:"id"`
	Name string   `json:"name,omitempty"`
	Kind NodeKind `json:"kind"`
	// Deps lists node IDs (same NPU graph) that must complete first.
	Deps []int `json:"deps,omitempty"`

	// Compute metadata.
	FLOPs    float64 `json:"flops,omitempty"`
	MemBytes int64   `json:"mem_bytes,omitempty"`

	// Memory metadata.
	MemOp       MemOp       `json:"mem_op,omitempty"`
	MemLocation MemLocation `json:"mem_location,omitempty"`
	TensorBytes int64       `json:"tensor_bytes,omitempty"`

	// Communication metadata.
	Collective CollectiveType `json:"collective,omitempty"`
	CommBytes  int64          `json:"comm_bytes,omitempty"`
	Group      *GroupRef      `json:"group,omitempty"`
	// InSwitch requests the collective be fused into the disaggregated
	// memory fabric (gather-on-load / reduce-on-store, Section IV-D.3).
	InSwitch bool `json:"in_switch,omitempty"`
	Peer     int  `json:"peer,omitempty"`
	Tag      int  `json:"tag,omitempty"`
}

// Graph is one NPU's execution trace.
type Graph struct {
	NPU   int     `json:"npu"`
	Nodes []*Node `json:"nodes"`
}

// Trace is a whole-machine execution trace: one graph per NPU.
type Trace struct {
	// Name labels the workload (e.g. "GPT-3/MP16xDP32").
	Name string `json:"name,omitempty"`
	// NumNPUs is the machine size the trace was generated for.
	NumNPUs int      `json:"num_npus"`
	Graphs  []*Graph `json:"graphs"`
}

// Validate checks structural invariants of a single graph: unique IDs,
// dependencies referencing existing nodes other than the node itself,
// kind-specific metadata present, and acyclicity.
func (g *Graph) Validate() error {
	_, err := compile(g.NPU, g.Nodes)
	return err
}

// Plan is one distinct node list, validated and compiled for execution.
// Nodes are addressed by their position in the list, so nothing downstream
// resolves a node ID or reads Deps. A plan is immutable and shared by every
// graph that uses its list; the slices its methods return are shared too,
// and callers must not modify them.
type Plan struct {
	nodes []*Node
	// The dependents of position p are deps[off[p]:off[p+1]], in list
	// order, one entry per dependency edge.
	off, deps []int32
	indeg     []int32
	roots     []int32
	// p2p counts the list's send and receive nodes.
	p2p int
}

// Nodes returns the node list in declaration order.
func (p *Plan) Nodes() []*Node { return p.nodes }

// Dependents returns the positions that depend on position pos, one entry
// per dependency edge: a duplicated dep appears twice, matching the
// in-degree count.
func (p *Plan) Dependents(pos int32) []int32 { return p.deps[p.off[pos]:p.off[pos+1]] }

// InDegrees returns each position's initial in-degree: its dependency count.
func (p *Plan) InDegrees() []int32 { return p.indeg }

// Roots returns the positions with no dependencies in ascending-ID order.
func (p *Plan) Roots() []int32 { return p.roots }

// compile validates one node list and builds its plan. Node IDs need not
// be dense or ascending; this is the one place they are resolved to list
// positions. Errors come in list order: nil nodes and duplicate IDs first,
// then each node's dependencies and metadata, then cycles.
func compile(npu int, nodes []*Node) (*Plan, error) {
	n := len(nodes)
	pos := make(map[int]int32, n)
	edges := 0
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("et: npu %d has a nil node", npu)
		}
		if _, dup := pos[nd.ID]; dup {
			return nil, fmt.Errorf("et: npu %d has duplicate node id %d", npu, nd.ID)
		}
		pos[nd.ID] = int32(i)
		edges += len(nd.Deps)
	}
	p := &Plan{nodes: nodes, off: make([]int32, n+1), indeg: make([]int32, n)}
	// depPos holds every node's dependencies as list positions, node after
	// node, so each ID is resolved once.
	depPos := make([]int32, 0, edges)
	for i, nd := range nodes {
		for _, d := range nd.Deps {
			q, ok := pos[d]
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
			p.roots = append(p.roots, int32(i))
		}
		if nd.Kind == KindSend || nd.Kind == KindRecv {
			p.p2p++
		}
	}
	for q := 0; q < n; q++ {
		p.off[q+1] += p.off[q]
	}
	p.deps = make([]int32, edges)
	// Fill the dependents in list order; node i's indeg[i] dependency
	// positions are next on depPos.
	next := append([]int32(nil), p.off[:n]...) // next free slot per position
	for i, k := range p.indeg {
		for _, q := range depPos[:k] {
			p.deps[next[q]] = int32(i)
			next[q]++
		}
		depPos = depPos[k:]
	}
	// Kahn's algorithm: the list is acyclic when every position drains.
	deg := append(next[:0], p.indeg...)
	queue := append(make([]int32, 0, n), p.roots...)
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
	slices.SortFunc(p.roots, func(a, b int32) int { return cmp.Compare(nodes[a].ID, nodes[b].ID) })
	return p, nil
}

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
		if n.Peer < 0 {
			return fmt.Errorf("p2p node needs a peer rank")
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
	first **Node
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
// distinct list rather than once per rank.
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
	p2p := 0
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
		p := shared[key]
		if p == nil {
			var err error
			if p, err = compile(g.NPU, g.Nodes); err != nil {
				return nil, err
			}
			shared[key] = p
		}
		plans[i] = p
		p2p += p.p2p
	}
	if err := t.matchP2P(plans, p2p); err != nil {
		return nil, err
	}
	return plans, nil
}

// p2pChannel is a point-to-point channel: sender, receiver and tag.
type p2pChannel struct{ src, dst, tag int }

// p2pRecord is one send or receive on a channel; pos is its position in
// its graph's list.
type p2pRecord struct {
	ch   p2pChannel
	recv bool
	pos  int32
	size int64
}

// matchP2P matches sends against receives. It sorts one record per P2P
// node by channel, then sends before receives, then list position, so each
// channel is a run of sends in list order followed by its receives, and
// the lowest faulty channel is the one reported.
func (t *Trace) matchP2P(plans []*Plan, count int) error {
	recs := make([]p2pRecord, 0, count)
	for i, g := range t.Graphs {
		if plans[i].p2p == 0 {
			continue
		}
		for pos, n := range g.Nodes {
			switch n.Kind {
			case KindSend:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d sends to out-of-range peer %d", g.NPU, n.Peer)
				}
				recs = append(recs, p2pRecord{ch: p2pChannel{g.NPU, n.Peer, n.Tag}, pos: int32(pos), size: n.CommBytes})
			case KindRecv:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d receives from out-of-range peer %d", g.NPU, n.Peer)
				}
				recs = append(recs, p2pRecord{ch: p2pChannel{n.Peer, g.NPU, n.Tag}, recv: true, pos: int32(pos), size: n.CommBytes})
			}
		}
	}
	slices.SortFunc(recs, func(a, b p2pRecord) int {
		switch {
		case a.ch.src != b.ch.src:
			return cmp.Compare(a.ch.src, b.ch.src)
		case a.ch.dst != b.ch.dst:
			return cmp.Compare(a.ch.dst, b.ch.dst)
		case a.ch.tag != b.ch.tag:
			return cmp.Compare(a.ch.tag, b.ch.tag)
		case a.recv != b.recv:
			if a.recv {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i := 0; i < len(recs); {
		c := recs[i].ch
		j, m := i, i // the channel's sends are recs[i:m], its receives recs[m:j]
		for ; j < len(recs) && recs[j].ch == c; j++ {
			if !recs[j].recv {
				m++
			}
		}
		sends, recvs := recs[i:m], recs[m:j]
		if len(sends) == 0 {
			return fmt.Errorf("et: %d recvs with no send for %d->%d tag %d", len(recvs), c.src, c.dst, c.tag)
		}
		if len(sends) != len(recvs) {
			return fmt.Errorf("et: %d sends but %d recvs for %d->%d tag %d", len(sends), len(recvs), c.src, c.dst, c.tag)
		}
		for k, s := range sends {
			if s.size != recvs[k].size {
				return fmt.Errorf("et: size mismatch on %d->%d tag %d: send %d vs recv %d", c.src, c.dst, c.tag, s.size, recvs[k].size)
			}
		}
		i = j
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

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Decode reads a trace from JSON and validates it.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("et: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
