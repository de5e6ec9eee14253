// Package et defines the ASTRA-sim execution trace (ET) — the paper's
// common trace format that decouples parallelization strategies from the
// simulator frontend (Section IV-A). A trace holds one dependency graph per
// NPU; nodes are compute, memory, or communication operations, and edges
// encode both intra-layer ordering and the parallelization strategy itself.
// Because each NPU has an independent graph, NPUs may execute different
// operations at the same time, which is what enables pipeline parallelism
// and other asymmetric strategies.
package et

import (
	"encoding/json"
	"fmt"
	"io"
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
// dependencies referencing existing earlier-declared nodes, kind-specific
// metadata present, and acyclicity.
func (g *Graph) Validate() error {
	pos := make(map[int]int32, len(g.Nodes))
	for i, n := range g.Nodes {
		if n == nil {
			return fmt.Errorf("et: npu %d has a nil node", g.NPU)
		}
		if _, dup := pos[n.ID]; dup {
			return fmt.Errorf("et: npu %d has duplicate node id %d", g.NPU, n.ID)
		}
		pos[n.ID] = int32(i)
	}
	// depPos holds every node's dependencies as list positions, node after
	// node, for the cycle check.
	var depPos []int32
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			p, ok := pos[d]
			if !ok {
				return fmt.Errorf("et: npu %d node %d depends on unknown node %d", g.NPU, n.ID, d)
			}
			if d == n.ID {
				return fmt.Errorf("et: npu %d node %d depends on itself", g.NPU, n.ID)
			}
			depPos = append(depPos, p)
		}
		if err := n.validateMeta(); err != nil {
			return fmt.Errorf("et: npu %d node %d: %w", g.NPU, n.ID, err)
		}
	}
	if g.hasCycle(depPos) {
		return fmt.Errorf("et: npu %d graph has a dependency cycle", g.NPU)
	}
	return nil
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

// hasCycle runs Kahn's algorithm over list positions; depPos is every
// node's dependency positions in list order.
func (g *Graph) hasCycle(depPos []int32) bool {
	n := len(g.Nodes)
	indeg := make([]int32, n)
	// The children of position p are kids[off[p]:off[p+1]].
	off := make([]int32, n+1)
	for _, p := range depPos {
		off[p+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	kids := make([]int32, len(depPos))
	fill := append([]int32(nil), off[:n]...)
	k := 0
	for i, nd := range g.Nodes {
		indeg[i] = int32(len(nd.Deps))
		for range nd.Deps {
			p := depPos[k]
			k++
			kids[fill[p]] = int32(i)
			fill[p]++
		}
	}
	queue := make([]int32, 0, n)
	for p, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(p))
		}
	}
	for h := 0; h < len(queue); h++ {
		p := queue[h]
		for _, c := range kids[off[p]:off[p+1]] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return len(queue) != n
}

// ListKey identifies a graph's node list by its backing array and length.
// Graphs that share one list — etgen's symmetric traces hand every rank the
// same slice — have equal keys, and equal keys mean the same list, so
// per-list work (validation, the execution engine's plan compilation) runs
// once per distinct list rather than once per rank. Lists that merely start
// with the same node are distinct: the key is the address of the list's
// first slot, not the node stored there.
type ListKey struct {
	first **Node
	n     int
}

// ListKey returns the identity of the graph's node list.
func (g *Graph) ListKey() ListKey {
	if len(g.Nodes) == 0 {
		return ListKey{}
	}
	return ListKey{first: &g.Nodes[0], n: len(g.Nodes)}
}

// Validate checks the whole trace: per-graph invariants, one graph per NPU
// rank, and point-to-point send/recv matching across graphs (every send
// must have a matching recv at the peer with the same tag and size, and
// vice versa) — mismatched P2P nodes would deadlock the simulation. The
// per-graph checks run once per distinct node list (see ListKey).
func (t *Trace) Validate() error {
	if t.NumNPUs <= 0 {
		return fmt.Errorf("et: trace needs a positive NPU count")
	}
	if len(t.Graphs) != t.NumNPUs {
		return fmt.Errorf("et: trace has %d graphs for %d NPUs", len(t.Graphs), t.NumNPUs)
	}
	seen := make([]bool, t.NumNPUs)
	hasP2P := make(map[ListKey]bool) // validated lists -> holds send/recv nodes
	for _, g := range t.Graphs {
		if g == nil {
			return fmt.Errorf("et: trace has a nil graph")
		}
		if g.NPU < 0 || g.NPU >= t.NumNPUs {
			return fmt.Errorf("et: graph for out-of-range npu %d", g.NPU)
		}
		if seen[g.NPU] {
			return fmt.Errorf("et: duplicate graph for npu %d", g.NPU)
		}
		seen[g.NPU] = true
		key := g.ListKey()
		if _, ok := hasP2P[key]; ok {
			continue
		}
		if err := g.Validate(); err != nil {
			return err
		}
		hasP2P[key] = g.hasP2P()
	}
	return t.validateP2P(hasP2P)
}

func (g *Graph) hasP2P() bool {
	for _, n := range g.Nodes {
		if n.Kind == KindSend || n.Kind == KindRecv {
			return true
		}
	}
	return false
}

type p2pKey struct {
	src, dst, tag int
}

// validateP2P matches sends against recvs, skipping the graphs whose list
// holds no point-to-point nodes.
func (t *Trace) validateP2P(hasP2P map[ListKey]bool) error {
	sends := make(map[p2pKey][]int64)
	recvs := make(map[p2pKey][]int64)
	for _, g := range t.Graphs {
		if !hasP2P[g.ListKey()] {
			continue
		}
		for _, n := range g.Nodes {
			switch n.Kind {
			case KindSend:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d sends to out-of-range peer %d", g.NPU, n.Peer)
				}
				k := p2pKey{src: g.NPU, dst: n.Peer, tag: n.Tag}
				sends[k] = append(sends[k], n.CommBytes)
			case KindRecv:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d receives from out-of-range peer %d", g.NPU, n.Peer)
				}
				k := p2pKey{src: n.Peer, dst: g.NPU, tag: n.Tag}
				recvs[k] = append(recvs[k], n.CommBytes)
			}
		}
	}
	for k, s := range sends {
		r := recvs[k]
		if len(s) != len(r) {
			return fmt.Errorf("et: %d sends but %d recvs for %d->%d tag %d", len(s), len(r), k.src, k.dst, k.tag)
		}
		for i := range s {
			if s[i] != r[i] {
				return fmt.Errorf("et: size mismatch on %d->%d tag %d: send %d vs recv %d", k.src, k.dst, k.tag, s[i], r[i])
			}
		}
		delete(recvs, k)
	}
	for k, r := range recvs {
		return fmt.Errorf("et: %d recvs with no send for %d->%d tag %d", len(r), k.src, k.dst, k.tag)
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
