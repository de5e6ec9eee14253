// Package convert translates framework-native execution graphs into the
// ASTRA-sim ET format, mirroring the paper's converter pipeline
// (Section IV-A): "we provide a converter from any ET (e.g., PyTorch ET)
// to ASTRA-sim ET". The input format implemented here is a PARAM-style
// PyTorch execution graph — the JSON produced by PyTorch's
// ExecutionGraphObserver (the paper's Snippet 1) — reduced to the fields
// the simulator needs. Operator names drive the node classification:
//
//	aten::*                          -> compute nodes
//	nccl:all_reduce / nccl:all_gather
//	nccl:reduce_scatter / nccl:all_to_all -> collective nodes
//	nccl:send / nccl:recv            -> point-to-point nodes
//	mem::load / mem::store           -> memory nodes
//
// Each kind reads its attributes (flops and mem_bytes; remote and
// tensor_bytes; peer, tag and comm_bytes; comm_bytes, in_switch and
// group_spans). An absent or null attribute reads as zero, and one of
// another JSON type is an error that names it.
package convert

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/et"
)

// PyTorchGraph is the per-rank PARAM-style execution graph.
type PyTorchGraph struct {
	// SchemaVersion matches the PyTorch execution-graph observer output.
	SchemaVersion string        `json:"schema,omitempty"`
	Rank          int           `json:"rank"`
	Nodes         []PyTorchNode `json:"nodes"`
}

// PyTorchNode is one recorded operator.
type PyTorchNode struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// CtrlDeps lists the operator's control/data dependencies.
	CtrlDeps []int `json:"ctrl_deps,omitempty"`
	// Attrs carries operator metadata; recognized keys: "flops",
	// "mem_bytes", "tensor_bytes", "comm_bytes", "peer", "tag",
	// "in_switch", "group_spans".
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

// PyTorchTrace is a whole-job capture: one graph per rank.
type PyTorchTrace struct {
	Name    string         `json:"name,omitempty"`
	NumNPUs int            `json:"num_npus"`
	Graphs  []PyTorchGraph `json:"graphs"`
}

// DecodePyTorch reads one PARAM-style trace document from JSON. Anything
// but whitespace after the document is an error.
func DecodePyTorch(r io.Reader) (*PyTorchTrace, error) {
	var t PyTorchTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("convert: decode pytorch trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("convert: decode pytorch trace: data after the trace document")
	}
	return &t, nil
}

// Convert translates a PyTorch-style trace into a validated ASTRA-sim ET.
func Convert(src *PyTorchTrace) (*et.Trace, error) {
	if src.NumNPUs <= 0 {
		return nil, fmt.Errorf("convert: trace needs a positive NPU count")
	}
	out := &et.Trace{Name: src.Name, NumNPUs: src.NumNPUs}
	for i := range src.Graphs {
		g, err := convertGraph(&src.Graphs[i])
		if err != nil {
			return nil, err
		}
		out.Graphs = append(out.Graphs, g)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("convert: converted trace invalid: %w", err)
	}
	return out, nil
}

// convertGraph fills one exact-size node list; the nodes' deps are windows
// of one exact-size array. A send's or receive's peer attribute is a rank,
// which becomes the offset from src.Rank that et.Node.Peer holds.
func convertGraph(src *PyTorchGraph) (*et.Graph, error) {
	edges := 0
	for i := range src.Nodes {
		edges += len(src.Nodes[i].CtrlDeps)
	}
	g := &et.Graph{NPU: src.Rank, Nodes: make([]et.Node, len(src.Nodes))}
	deps := make([]int, 0, edges)
	for i := range src.Nodes {
		n := &g.Nodes[i]
		if err := convertNode(n, &src.Nodes[i]); err != nil {
			return nil, fmt.Errorf("convert: rank %d node %d (%s): %w", src.Rank, src.Nodes[i].ID, src.Nodes[i].Name, err)
		}
		if n.Kind == et.KindSend || n.Kind == et.KindRecv {
			n.Peer -= src.Rank
		}
		if k := len(src.Nodes[i].CtrlDeps); k > 0 {
			deps = append(deps, src.Nodes[i].CtrlDeps...)
			n.Deps = deps[len(deps)-k:]
		}
	}
	return g, nil
}

// convertNode fills n, whose Deps the caller sets, from one operator.
func convertNode(n *et.Node, src *PyTorchNode) error {
	n.ID, n.Name = src.ID, src.Name
	a := attrs{m: src.Attrs}
	switch {
	case strings.HasPrefix(src.Name, "aten::"):
		n.Kind = et.KindCompute
		a.get("flops", &n.FLOPs)
		a.get("mem_bytes", &n.MemBytes)
	case strings.HasPrefix(src.Name, "mem::"):
		n.Kind = et.KindMemory
		switch src.Name {
		case "mem::load":
			n.MemOp = et.MemLoad
		case "mem::store":
			n.MemOp = et.MemStore
		default:
			return fmt.Errorf("unknown memory op %q", src.Name)
		}
		var remote bool
		a.get("remote", &remote)
		n.MemLocation = et.MemLocal
		if remote {
			n.MemLocation = et.MemRemote
		}
		a.get("tensor_bytes", &n.TensorBytes)
	case strings.HasPrefix(src.Name, "nccl:"):
		op := strings.TrimPrefix(src.Name, "nccl:")
		switch op {
		case "all_reduce":
			n.Kind, n.Collective = et.KindComm, et.CollAllReduce
		case "all_gather":
			n.Kind, n.Collective = et.KindComm, et.CollAllGather
		case "reduce_scatter":
			n.Kind, n.Collective = et.KindComm, et.CollReduceScatter
		case "all_to_all":
			n.Kind, n.Collective = et.KindComm, et.CollAllToAll
		case "send":
			n.Kind = et.KindSend
		case "recv":
			n.Kind = et.KindRecv
		default:
			return fmt.Errorf("unknown nccl op %q", op)
		}
		if n.Kind != et.KindComm {
			a.get("peer", &n.Peer)
			a.get("tag", &n.Tag)
		}
		a.get("comm_bytes", &n.CommBytes)
		if n.Kind == et.KindComm {
			a.get("in_switch", &n.InSwitch)
			var spans []et.SpanRef
			a.get("group_spans", &spans)
			if len(spans) > 0 {
				n.Group = &et.GroupRef{Spans: spans}
			}
		}
	default:
		return fmt.Errorf("unclassifiable operator %q", src.Name)
	}
	return a.err
}

// attrs decodes one operator's attributes and keeps the first error.
type attrs struct {
	m   map[string]json.RawMessage
	err error
}

// get decodes attribute key into v, which stays zero when the key is
// absent or null. A value of another JSON type is an error, and after an
// error get decodes nothing.
func (a *attrs) get(key string, v any) {
	raw, ok := a.m[key]
	if !ok || a.err != nil {
		return
	}
	if err := json.Unmarshal(raw, v); err != nil {
		a.err = fmt.Errorf("bad %s attribute: %w", key, err)
	}
}
