package et

import (
	"bytes"
	"encoding"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// enumNames lists every value of the four trace enums with the JSON name
// it has always had.
var enumNames = []struct {
	v    encoding.TextMarshaler
	name string
}{
	{KindCompute, "COMP"}, {KindMemory, "MEM"}, {KindComm, "COMM_COLL"}, {KindSend, "COMM_SEND"}, {KindRecv, "COMM_RECV"},
	{CollAllReduce, "ALL_REDUCE"}, {CollAllGather, "ALL_GATHER"}, {CollReduceScatter, "REDUCE_SCATTER"}, {CollAllToAll, "ALL_TO_ALL"},
	{MemLoad, "LOAD"}, {MemStore, "STORE"},
	{MemLocal, "LOCAL"}, {MemRemote, "REMOTE"},
}

// enumTrace holds every enum value: every node kind, every collective type
// and every memory op and location.
func enumTrace() *Trace {
	return &Trace{NumNPUs: 2, Graphs: []*Graph{
		{NPU: 0, Nodes: []Node{
			{ID: 1, Kind: KindCompute, FLOPs: 1},
			{ID: 2, Kind: KindMemory, Deps: []int{1}, MemOp: MemLoad, MemLocation: MemLocal, TensorBytes: 8},
			{ID: 3, Kind: KindMemory, Deps: []int{2}, MemOp: MemStore, MemLocation: MemRemote, TensorBytes: 8},
			{ID: 4, Kind: KindComm, Collective: CollAllReduce, CommBytes: 8},
			{ID: 5, Kind: KindComm, Collective: CollAllGather, CommBytes: 8, InSwitch: true},
			{ID: 6, Kind: KindComm, Collective: CollReduceScatter, CommBytes: 8, Group: &GroupRef{Spans: []SpanRef{{Phys: 0, K: 2, Stride: 1}}}},
			{ID: 7, Kind: KindComm, Deps: []int{4}, Collective: CollAllToAll, CommBytes: 8},
			{ID: 8, Name: "s", Kind: KindSend, Deps: []int{1, 7}, Peer: 1, Tag: 3, CommBytes: 8},
		}},
		{NPU: 1, Nodes: []Node{{ID: 1, Kind: KindRecv, Peer: -1, Tag: 3, CommBytes: 8}}},
	}}
}

// enumDoc is enumTrace's Encode output: the enum values under their JSON
// names, and each node's keys in Node's field order.
const enumDoc = `{"num_npus":2,"graphs":[{"npu":0,"nodes":[` +
	`{"id":1,"kind":"COMP","flops":1},` +
	`{"id":2,"kind":"MEM","mem_op":"LOAD","mem_location":"LOCAL","deps":[1],"tensor_bytes":8},` +
	`{"id":3,"kind":"MEM","mem_op":"STORE","mem_location":"REMOTE","deps":[2],"tensor_bytes":8},` +
	`{"id":4,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":8},` +
	`{"id":5,"kind":"COMM_COLL","collective":"ALL_GATHER","in_switch":true,"comm_bytes":8},` +
	`{"id":6,"kind":"COMM_COLL","collective":"REDUCE_SCATTER","comm_bytes":8,"group":{"spans":[{"phys":0,"k":2,"stride":1}]}},` +
	`{"id":7,"kind":"COMM_COLL","collective":"ALL_TO_ALL","deps":[4],"comm_bytes":8},` +
	`{"id":8,"name":"s","kind":"COMM_SEND","deps":[1,7],"comm_bytes":8,"peer":1,"tag":3}]},` +
	`{"npu":1,"nodes":[{"id":1,"kind":"COMM_RECV","comm_bytes":8,"tag":3}]}]}` + "\n"

// stringEnumDoc is the same trace as Encode wrote it while the enums were
// strings: the same keys and values, deps before the enums and in_switch
// after comm_bytes.
const stringEnumDoc = `{"num_npus":2,"graphs":[{"npu":0,"nodes":[` +
	`{"id":1,"kind":"COMP","flops":1},` +
	`{"id":2,"kind":"MEM","deps":[1],"mem_op":"LOAD","mem_location":"LOCAL","tensor_bytes":8},` +
	`{"id":3,"kind":"MEM","deps":[2],"mem_op":"STORE","mem_location":"REMOTE","tensor_bytes":8},` +
	`{"id":4,"kind":"COMM_COLL","collective":"ALL_REDUCE","comm_bytes":8},` +
	`{"id":5,"kind":"COMM_COLL","collective":"ALL_GATHER","comm_bytes":8,"in_switch":true},` +
	`{"id":6,"kind":"COMM_COLL","collective":"REDUCE_SCATTER","comm_bytes":8,"group":{"spans":[{"phys":0,"k":2,"stride":1}]}},` +
	`{"id":7,"kind":"COMM_COLL","deps":[4],"collective":"ALL_TO_ALL","comm_bytes":8},` +
	`{"id":8,"name":"s","kind":"COMM_SEND","deps":[1,7],"comm_bytes":8,"peer":1,"tag":3}]},` +
	`{"npu":1,"nodes":[{"id":1,"kind":"COMM_RECV","comm_bytes":8,"tag":3}]}]}` + "\n"

// Every enum value is one byte, prints and encodes as its JSON name, and
// round-trips through Encode and Decode; a document written while the
// enums were strings decodes to the same trace.
func TestEnumsRoundTripUnderTheirNames(t *testing.T) {
	for _, e := range enumNames {
		if size := reflect.TypeOf(e.v).Size(); size != 1 {
			t.Errorf("%T is %d bytes, want 1", e.v, size)
		}
		b, err := e.v.MarshalText()
		if err != nil || string(b) != e.name || fmt.Sprint(e.v) != e.name {
			t.Errorf("%T %d: MarshalText %q, %v, String %q; want %q", e.v, e.v, b, err, fmt.Sprint(e.v), e.name)
		}
	}
	want := enumTrace()
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != enumDoc {
		t.Fatalf("Encode wrote\n%s\nwant\n%s", buf.String(), enumDoc)
	}
	for _, doc := range []string{enumDoc, stringEnumDoc} {
		got, err := Decode(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %+v, want %+v", got, want)
		}
	}
}

// An unknown enum name is a decode error naming the type and the name;
// the first unknown name in the document is the one reported. An empty
// name decodes as unset, which validation reports as it always has.
func TestDecodeUnknownEnumNames(t *testing.T) {
	var buf bytes.Buffer
	if err := validTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	cases := []struct {
		name, old, new, want string
	}{
		{"bad metadata", `"ALL_REDUCE"`, `"BROADCAST"`, `et: decode: unknown collective type "BROADCAST"`},
		{"node kind", `"kind":"COMP"`, `"kind":"NOP"`, `et: decode: unknown node kind "NOP"`},
		{"lower-case kind", `"kind":"COMP"`, `"kind":"comp"`, `et: decode: unknown node kind "comp"`},
		{"memory op", `"kind":"COMP"`, `"kind":"MEM","mem_op":"FETCH","mem_location":"LOCAL","tensor_bytes":8`, `et: decode: unknown memory op "FETCH"`},
		{"memory location", `"kind":"COMP"`, `"kind":"MEM","mem_op":"LOAD","mem_location":"HBM","tensor_bytes":8`, `et: decode: unknown memory location "HBM"`},
		{"first of two", `"kind":"COMM_COLL","collective":"ALL_REDUCE"`, `"kind":"NOP","collective":"BROADCAST"`, `et: decode: unknown node kind "NOP"`},
		{"first of two, reversed", `"kind":"COMM_COLL","collective":"ALL_REDUCE"`, `"collective":"BROADCAST","kind":"NOP"`, `et: decode: unknown collective type "BROADCAST"`},
		{"empty kind", `"kind":"COMP"`, `"kind":""`, `et: npu 0 node 1: unknown node kind ""`},
		{"empty collective", `"collective":"ALL_REDUCE"`, `"collective":""`, `et: npu 0 node 2: collective node has unknown type ""`},
	}
	for _, c := range cases {
		bad := strings.Replace(doc, c.old, c.new, 1)
		if bad == doc {
			t.Fatalf("%s: %s not in the document", c.name, c.old)
		}
		if _, err := Decode(strings.NewReader(bad)); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}

// A value outside an enum's table can only be set from Go. Validate
// rejects it, and Encode fails rather than write a name Decode would
// reject.
func TestOutOfRangeEnumsRejected(t *testing.T) {
	cases := []struct {
		node             Node
		validate, encode string
	}{
		{Node{ID: 2, Kind: KindRecv + 1},
			`et: npu 1 node 2: unknown node kind "et.NodeKind(6)"`,
			`json: error calling MarshalText for type et.NodeKind: unknown node kind "et.NodeKind(6)"`},
		{Node{ID: 2, Kind: KindComm, Collective: 255, CommBytes: 8},
			`et: npu 1 node 2: collective node has unknown type "et.CollectiveType(255)"`,
			`json: error calling MarshalText for type et.CollectiveType: unknown collective type "et.CollectiveType(255)"`},
		{Node{ID: 2, Kind: KindMemory, MemOp: MemStore + 1, MemLocation: MemLocal, TensorBytes: 8},
			`et: npu 1 node 2: memory node needs mem_op LOAD or STORE, got "et.MemOp(3)"`,
			`json: error calling MarshalText for type et.MemOp: unknown memory op "et.MemOp(3)"`},
		{Node{ID: 2, Kind: KindMemory, MemOp: MemLoad, MemLocation: MemRemote + 1, TensorBytes: 8},
			`et: npu 1 node 2: memory node needs mem_location LOCAL or REMOTE, got "et.MemLocation(3)"`,
			`json: error calling MarshalText for type et.MemLocation: unknown memory location "et.MemLocation(3)"`},
	}
	for _, c := range cases {
		tr := validTrace()
		tr.Graphs[1].Nodes[1] = c.node
		if err := tr.Validate(); err == nil || err.Error() != c.validate {
			t.Errorf("Validate: got %v, want %q", err, c.validate)
		}
		if err := tr.Encode(&bytes.Buffer{}); err == nil || err.Error() != c.encode {
			t.Errorf("Encode: got %v, want %q", err, c.encode)
		}
	}
}

// The enums and InSwitch share one word, so a node is 112 bytes.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("node size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got != 112 {
		t.Errorf("et.Node is %d bytes, want 112", got)
	}
}

// Encode allocates nothing per enum value: every MarshalText call hands
// out its name's bytes, built once, so encoding 4 or 1,024 ranks that
// share one 100-node compute list takes the same number of allocations.
func TestEncodeAllocsIndependentOfRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through encoding/json's sync.Pool are random under the race detector")
	}
	nodes := make([]Node, 100)
	for i := range nodes {
		nodes[i] = Node{ID: i + 1, Kind: KindCompute, FLOPs: 1}
	}
	allocs := func(ranks int) float64 {
		tr := &Trace{NumNPUs: ranks, Graphs: make([]*Graph, ranks)}
		for r := range tr.Graphs {
			tr.Graphs[r] = &Graph{NPU: r, Nodes: nodes}
		}
		return testing.AllocsPerRun(5, func() {
			if err := tr.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(1024); few != many {
		t.Errorf("Encode allocates %.0f times for 4 ranks and %.0f for 1,024, want equal counts", few, many)
	}
}
