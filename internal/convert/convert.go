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
// of one exact-size array.
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
	switch {
	case strings.HasPrefix(src.Name, "aten::"):
		n.Kind = et.KindCompute
		n.FLOPs = attrFloat(src.Attrs, "flops")
		n.MemBytes = attrInt(src.Attrs, "mem_bytes")
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
		n.MemLocation = et.MemLocal
		if attrBool(src.Attrs, "remote") {
			n.MemLocation = et.MemRemote
		}
		n.TensorBytes = attrInt(src.Attrs, "tensor_bytes")
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
			n.Peer = int(attrInt(src.Attrs, "peer"))
			n.Tag = int(attrInt(src.Attrs, "tag"))
		case "recv":
			n.Kind = et.KindRecv
			n.Peer = int(attrInt(src.Attrs, "peer"))
			n.Tag = int(attrInt(src.Attrs, "tag"))
		default:
			return fmt.Errorf("unknown nccl op %q", op)
		}
		n.CommBytes = attrInt(src.Attrs, "comm_bytes")
		if n.Kind == et.KindComm {
			n.InSwitch = attrBool(src.Attrs, "in_switch")
			spans, err := attrSpans(src.Attrs, "group_spans")
			if err != nil {
				return err
			}
			if len(spans) > 0 {
				n.Group = &et.GroupRef{Spans: spans}
			}
		}
	default:
		return fmt.Errorf("unclassifiable operator %q", src.Name)
	}
	return nil
}

func attrFloat(attrs map[string]json.RawMessage, key string) float64 {
	var v float64
	if raw, ok := attrs[key]; ok {
		_ = json.Unmarshal(raw, &v)
	}
	return v
}

func attrInt(attrs map[string]json.RawMessage, key string) int64 {
	var v int64
	if raw, ok := attrs[key]; ok {
		_ = json.Unmarshal(raw, &v)
	}
	return v
}

func attrBool(attrs map[string]json.RawMessage, key string) bool {
	var v bool
	if raw, ok := attrs[key]; ok {
		_ = json.Unmarshal(raw, &v)
	}
	return v
}

func attrSpans(attrs map[string]json.RawMessage, key string) ([]et.SpanRef, error) {
	raw, ok := attrs[key]
	if !ok {
		return nil, nil
	}
	var spans []et.SpanRef
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("bad %s attribute: %w", key, err)
	}
	return spans, nil
}
