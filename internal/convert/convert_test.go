package convert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/et"
)

func raw(t *testing.T, v interface{}) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleTrace(t *testing.T) *PyTorchTrace {
	t.Helper()
	mk := func(rank, peer int, sendFirst bool) PyTorchGraph {
		kind := "nccl:send"
		other := "nccl:recv"
		if !sendFirst {
			kind, other = other, kind
		}
		_ = other
		return PyTorchGraph{
			Rank: rank,
			Nodes: []PyTorchNode{
				{ID: 1, Name: "aten::matmul", Attrs: map[string]json.RawMessage{
					"flops": raw(t, 1e9), "mem_bytes": raw(t, 1<<20),
				}},
				{ID: 2, Name: "nccl:all_reduce", CtrlDeps: []int{1}, Attrs: map[string]json.RawMessage{
					"comm_bytes": raw(t, 1<<22),
				}},
				{ID: 3, Name: "mem::store", CtrlDeps: []int{2}, Attrs: map[string]json.RawMessage{
					"tensor_bytes": raw(t, 4096), "remote": raw(t, true),
				}},
				{ID: 4, Name: kind, CtrlDeps: []int{3}, Attrs: map[string]json.RawMessage{
					"comm_bytes": raw(t, 8192), "peer": raw(t, peer), "tag": raw(t, 5),
				}},
			},
		}
	}
	return &PyTorchTrace{
		Name:    "sample",
		NumNPUs: 2,
		Graphs:  []PyTorchGraph{mk(0, 1, true), mk(1, 0, false)},
	}
}

// Convert turns a peer attribute, a rank, into the offset from the graph's
// rank that et.Node.Peer holds, and Encode writes the rank back: a receive
// on rank 2 from rank 0 is peer -2 in the trace and 0 in its JSON (where
// omitempty leaves the zero out), and rank 0's send to rank 2 is 2 in both.
func TestConvertPeersAreOffsets(t *testing.T) {
	p2p := func(rank int, op string, peer int) PyTorchGraph {
		return PyTorchGraph{Rank: rank, Nodes: []PyTorchNode{{ID: 1, Name: op, Attrs: map[string]json.RawMessage{
			"comm_bytes": raw(t, 64), "peer": raw(t, peer), "tag": raw(t, 3),
		}}}}
	}
	src := &PyTorchTrace{NumNPUs: 3, Graphs: []PyTorchGraph{
		p2p(0, "nccl:send", 2), {Rank: 1}, p2p(2, "nccl:recv", 0),
	}}
	out, err := Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	if send, recv := out.Graphs[0].Nodes[0].Peer, out.Graphs[2].Nodes[0].Peer; send != 2 || recv != -2 {
		t.Errorf("send peer %d, receive peer %d; want 2 and -2", send, recv)
	}
	var doc bytes.Buffer
	if err := out.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	var encoded struct {
		Graphs []struct {
			Nodes []map[string]json.RawMessage
		}
	}
	if err := json.Unmarshal(doc.Bytes(), &encoded); err != nil {
		t.Fatal(err)
	}
	sendPeer, hasRecvPeer := string(encoded.Graphs[0].Nodes[0]["peer"]), encoded.Graphs[2].Nodes[0]["peer"] != nil
	if sendPeer != "2" || hasRecvPeer {
		t.Errorf("encoded send peer %s and receive peer %s; want 2 and none (rank 0)\n%s",
			sendPeer, encoded.Graphs[2].Nodes[0]["peer"], doc.Bytes())
	}
	if out.Graphs[2].Nodes[0].Peer != -2 {
		t.Error("Encode rewrote the trace's offset")
	}
}

func TestConvertClassifiesOperators(t *testing.T) {
	out, err := Convert(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	nodes := out.Graphs[0].Nodes
	if nodes[0].Kind != et.KindCompute || nodes[0].FLOPs != 1e9 {
		t.Errorf("compute node = %+v", nodes[0])
	}
	if nodes[1].Kind != et.KindComm || nodes[1].Collective != et.CollAllReduce || nodes[1].CommBytes != 1<<22 {
		t.Errorf("collective node = %+v", nodes[1])
	}
	if nodes[2].Kind != et.KindMemory || nodes[2].MemLocation != et.MemRemote || nodes[2].MemOp != et.MemStore {
		t.Errorf("memory node = %+v", nodes[2])
	}
	if nodes[3].Kind != et.KindSend || nodes[3].Peer != 1 || nodes[3].Tag != 5 {
		t.Errorf("send node = %+v", nodes[3])
	}
	if out.Graphs[1].Nodes[3].Kind != et.KindRecv {
		t.Errorf("recv node = %+v", out.Graphs[1].Nodes[3])
	}
}

func TestConvertPreservesDeps(t *testing.T) {
	out, err := Convert(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Graphs[0].Nodes[1].Deps; len(got) != 1 || got[0] != 1 {
		t.Errorf("deps = %v", got)
	}
}

func TestConvertGroupSpans(t *testing.T) {
	tr := &PyTorchTrace{
		NumNPUs: 4,
		Graphs: []PyTorchGraph{
			{Rank: 0, Nodes: []PyTorchNode{{ID: 1, Name: "nccl:all_gather", Attrs: map[string]json.RawMessage{
				"comm_bytes":  raw(t, 4096),
				"group_spans": raw(t, []et.SpanRef{{Phys: 0, K: 2, Stride: 1}}),
				"in_switch":   raw(t, true),
			}}}},
			{Rank: 1, Nodes: []PyTorchNode{{ID: 1, Name: "aten::relu"}}},
			{Rank: 2, Nodes: []PyTorchNode{{ID: 1, Name: "aten::relu"}}},
			{Rank: 3, Nodes: []PyTorchNode{{ID: 1, Name: "aten::relu"}}},
		},
	}
	out, err := Convert(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := out.Graphs[0].Nodes[0]
	if n.Group == nil || len(n.Group.Spans) != 1 || n.Group.Spans[0].K != 2 {
		t.Errorf("group = %+v", n.Group)
	}
	if !n.InSwitch {
		t.Error("in_switch lost")
	}
}

func TestConvertRejectsUnknownOps(t *testing.T) {
	cases := []string{"mysterious_op", "nccl:broadcast", "mem::flush"}
	for _, name := range cases {
		tr := &PyTorchTrace{
			NumNPUs: 1,
			Graphs:  []PyTorchGraph{{Rank: 0, Nodes: []PyTorchNode{{ID: 1, Name: name}}}},
		}
		if _, err := Convert(tr); err == nil {
			t.Errorf("operator %q accepted", name)
		}
	}
}

func TestConvertValidatesResult(t *testing.T) {
	// An orphan send must be caught by ET validation after conversion.
	tr := &PyTorchTrace{
		NumNPUs: 2,
		Graphs: []PyTorchGraph{
			{Rank: 0, Nodes: []PyTorchNode{{ID: 1, Name: "nccl:send", Attrs: map[string]json.RawMessage{
				"comm_bytes": raw(t, 64), "peer": raw(t, 1),
			}}}},
			{Rank: 1, Nodes: []PyTorchNode{{ID: 1, Name: "aten::relu"}}},
		},
	}
	if _, err := Convert(tr); err == nil {
		t.Error("orphan send accepted")
	}
	if _, err := Convert(&PyTorchTrace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestDecodePyTorchRoundTrip(t *testing.T) {
	src := sampleTrace(t)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePyTorch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNPUs != 2 || len(got.Graphs) != 2 || got.Graphs[0].Nodes[0].Name != "aten::matmul" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodePyTorch(strings.NewReader("nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// DecodePyTorch reads exactly one document: trailing whitespace is fine,
// and trailing garbage or a second document is an error.
func TestDecodePyTorchRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sampleTrace(t)); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := DecodePyTorch(strings.NewReader(doc + " \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	const want = "convert: decode pytorch trace: data after the trace document"
	for _, bad := range []string{doc + "trailing garbage {", doc + doc} {
		if _, err := DecodePyTorch(strings.NewReader(bad)); err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	}
}

func TestConvertedTraceRunsEndToEnd(t *testing.T) {
	out, err := Convert(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NodeCount() != 8 {
		t.Errorf("NodeCount = %d", out.NodeCount())
	}
}

// A recognized attribute of the wrong JSON type is an error that names it,
// not a zero: one case per attribute key. The same key set to null, or
// absent, reads as zero.
func TestConvertRejectsMistypedAttributes(t *testing.T) {
	cases := []struct{ op, key, value, want string }{
		{"aten::mm", "flops", `"1e12"`, "json: cannot unmarshal string into Go value of type float64"},
		{"aten::mm", "mem_bytes", `"64"`, "json: cannot unmarshal string into Go value of type int64"},
		{"mem::load", "remote", `"true"`, "json: cannot unmarshal string into Go value of type bool"},
		{"mem::load", "tensor_bytes", `1.5`, "json: cannot unmarshal number 1.5 into Go value of type int64"},
		{"nccl:send", "peer", `1.0`, "json: cannot unmarshal number 1.0 into Go value of type int"},
		{"nccl:recv", "tag", `"7"`, "json: cannot unmarshal string into Go value of type int"},
		{"nccl:all_reduce", "comm_bytes", `true`, "json: cannot unmarshal bool into Go value of type int64"},
		{"nccl:all_gather", "in_switch", `1`, "json: cannot unmarshal number into Go value of type bool"},
		{"nccl:all_reduce", "group_spans", `{}`, "json: cannot unmarshal object into Go value of type []et.SpanRef"},
	}
	for _, c := range cases {
		node := func(value string) PyTorchNode {
			return PyTorchNode{ID: 1, Name: c.op, Attrs: map[string]json.RawMessage{c.key: json.RawMessage(value)}}
		}
		tr := &PyTorchTrace{NumNPUs: 1, Graphs: []PyTorchGraph{{Rank: 0, Nodes: []PyTorchNode{node(c.value)}}}}
		want := fmt.Sprintf("convert: rank 0 node 1 (%s): bad %s attribute: %s", c.op, c.key, c.want)
		if _, err := Convert(tr); err == nil || err.Error() != want {
			t.Errorf("%s %s=%s: got %v, want %q", c.op, c.key, c.value, err, want)
		}
		var null, absent et.Node
		errNull := convertNode(&null, &PyTorchNode{ID: 1, Name: c.op, Attrs: node("null").Attrs})
		errAbsent := convertNode(&absent, &PyTorchNode{ID: 1, Name: c.op})
		if errNull != nil || errAbsent != nil || !reflect.DeepEqual(null, absent) {
			t.Errorf("%s %s: null reads as %+v (%v), absent as %+v (%v)", c.op, c.key, null, errNull, absent, errAbsent)
		}
	}
}
