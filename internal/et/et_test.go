package et

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func validTrace() *Trace {
	return &Trace{
		Name:    "test",
		NumNPUs: 2,
		Graphs: []*Graph{
			{NPU: 0, Nodes: []Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9, MemBytes: 1 << 20},
				{ID: 2, Kind: KindComm, Deps: []int{1}, Collective: CollAllReduce, CommBytes: 1 << 20},
				{ID: 3, Kind: KindSend, Deps: []int{2}, Peer: 1, Tag: 7, CommBytes: 4096},
			}},
			{NPU: 1, Nodes: []Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9},
				{ID: 2, Kind: KindComm, Deps: []int{1}, Collective: CollAllReduce, CommBytes: 1 << 20},
				{ID: 3, Kind: KindRecv, Deps: []int{2}, Peer: -1, Tag: 7, CommBytes: 4096},
			}},
		},
	}
}

func TestValidTraceValidates(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumNPUs != tr.NumNPUs || got.NodeCount() != tr.NodeCount() {
		t.Errorf("round trip lost data: %+v", got)
	}
	if got.Graphs[0].Nodes[1].Collective != CollAllReduce {
		t.Error("collective type lost")
	}
}

func TestDuplicateNodeID(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[1].ID = 1
	if err := tr.Validate(); err == nil {
		t.Error("duplicate node id accepted")
	}
}

func TestUnknownDep(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[1].Deps = []int{99}
	if err := tr.Validate(); err == nil {
		t.Error("unknown dep accepted")
	}
}

func TestSelfDep(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[0].Deps = []int{1}
	if err := tr.Validate(); err == nil {
		t.Error("self dependency accepted")
	}
}

func TestCycleDetected(t *testing.T) {
	cycle := []Node{
		{ID: 1, Kind: KindCompute, Deps: []int{2}},
		{ID: 2, Kind: KindCompute, Deps: []int{1}},
	}
	if _, err := compile(0, cycle); err == nil {
		t.Error("cycle accepted")
	}
}

func TestLongChainNoCycle(t *testing.T) {
	nodes := make([]Node, 1000)
	for i := range nodes {
		n := Node{ID: i + 1, Kind: KindCompute, FLOPs: 1}
		if i > 0 {
			n.Deps = []int{i}
		}
		nodes[i] = n
	}
	if _, err := compile(0, nodes); err != nil {
		t.Errorf("chain rejected: %v", err)
	}
}

func TestKindMetadataValidation(t *testing.T) {
	cases := []struct {
		name string
		node Node
	}{
		{"negative flops", Node{ID: 1, Kind: KindCompute, FLOPs: -1}},
		{"mem without op", Node{ID: 1, Kind: KindMemory, TensorBytes: 10, MemLocation: MemLocal}},
		{"mem without location", Node{ID: 1, Kind: KindMemory, TensorBytes: 10, MemOp: MemLoad}},
		{"mem zero size", Node{ID: 1, Kind: KindMemory, MemOp: MemLoad, MemLocation: MemLocal}},
		{"coll unknown type", Node{ID: 1, Kind: KindComm, CommBytes: 10, Collective: CollAllToAll + 1}},
		{"coll zero size", Node{ID: 1, Kind: KindComm, Collective: CollAllToAll}},
		{"send zero size", Node{ID: 1, Kind: KindSend, Peer: 1}},
		{"bogus kind", Node{ID: 1, Kind: KindRecv + 1}},
	}
	for _, c := range cases {
		if _, err := compile(0, []Node{c.node}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTraceShapeErrors(t *testing.T) {
	tr := validTrace()
	tr.NumNPUs = 3
	if err := tr.Validate(); err == nil {
		t.Error("graph-count mismatch accepted")
	}
	tr = validTrace()
	tr.Graphs[1].NPU = 0
	if err := tr.Validate(); err == nil {
		t.Error("duplicate npu accepted")
	}
	tr = validTrace()
	tr.Graphs[1].NPU = 9
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range npu accepted")
	}
	if err := (&Trace{NumNPUs: 0}).Validate(); err == nil {
		t.Error("zero NPUs accepted")
	}
}

func TestP2PMatching(t *testing.T) {
	tr := validTrace()
	// Remove the recv: orphan send.
	tr.Graphs[1].Nodes = tr.Graphs[1].Nodes[:2]
	if err := tr.Validate(); err == nil {
		t.Error("orphan send accepted")
	}

	tr = validTrace()
	// Size mismatch.
	tr.Graphs[1].Nodes[2].CommBytes = 8192
	if err := tr.Validate(); err == nil {
		t.Error("size-mismatched p2p accepted")
	}

	tr = validTrace()
	// Orphan recv.
	tr.Graphs[0].Nodes = tr.Graphs[0].Nodes[:2]
	if err := tr.Validate(); err == nil {
		t.Error("orphan recv accepted")
	}

	tr = validTrace()
	// Send to nonexistent rank.
	tr.Graphs[0].Nodes[2].Peer = 5
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Decode(bytes.NewBufferString(`{"num_npus":1,"graphs":[]}`)); err == nil {
		t.Error("invalid trace accepted")
	}
	if _, err := Decode(bytes.NewBufferString(`{"num_npus":1,"graphs":[null]}`)); err == nil {
		t.Error("null graph accepted")
	}
}

// Decode reads exactly one document: trailing whitespace is fine, and
// trailing garbage or a second trace is an error.
func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := validTrace().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := Decode(bytes.NewBufferString(doc + " \n\t")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	const want = "et: decode: data after the trace document"
	for _, bad := range []string{doc + "trailing garbage {", doc + doc} {
		if _, err := Decode(bytes.NewBufferString(bad)); err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	}
}

// Property: random DAGs built by only referencing earlier IDs always
// validate, and reversing an edge into a later node creates either a valid
// DAG or is caught — never a crash.
func TestRandomDAGValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		nodes := make([]Node, n)
		for i := 0; i < n; i++ {
			node := Node{ID: i + 1, Kind: KindCompute, FLOPs: float64(rng.Intn(1000))}
			for d := 1; d <= i; d++ {
				if rng.Intn(4) == 0 {
					node.Deps = append(node.Deps, d)
				}
			}
			nodes[i] = node
		}
		_, err := compile(0, nodes)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeCount(t *testing.T) {
	if got := validTrace().NodeCount(); got != 6 {
		t.Errorf("NodeCount = %d, want 6", got)
	}
}

// Validation runs once per distinct node list, so a defect in a list that
// every rank shares must still be reported, and so must a defect in a list
// that only starts like a shared one.
// Plans reuses the previous graph's plan when a graph shares its list, but
// only after checking the graph itself: a nil graph, an out-of-range NPU
// or a duplicate NPU between two graphs that share a list is reported, the
// last two also when the defective graph shares the list.
func TestPlansCheckGraphsBetweenSharedLists(t *testing.T) {
	list := []Node{{ID: 1, Kind: KindCompute, FLOPs: 1}}
	other := []Node{{ID: 1, Kind: KindCompute, FLOPs: 2}}
	cases := []struct {
		name   string
		middle *Graph
		want   string
	}{
		{"nil", nil, "et: trace has a nil graph"},
		{"out of range, shared list", &Graph{NPU: 3, Nodes: list}, "et: graph for out-of-range npu 3"},
		{"out of range, other list", &Graph{NPU: -1, Nodes: other}, "et: graph for out-of-range npu -1"},
		{"duplicate, shared list", &Graph{NPU: 0, Nodes: list}, "et: duplicate graph for npu 0"},
		{"duplicate, other list", &Graph{NPU: 0, Nodes: other}, "et: duplicate graph for npu 0"},
	}
	for _, c := range cases {
		tr := &Trace{NumNPUs: 3, Graphs: []*Graph{{NPU: 0, Nodes: list}, c.middle, {NPU: 2, Nodes: list}}}
		if _, err := tr.Plans(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Plans error %v, want %q", c.name, err, c.want)
		}
	}
}

func TestSharedListDefectsStillRejected(t *testing.T) {
	shared := func(nodes []Node) *Trace {
		tr := &Trace{NumNPUs: 4}
		for r := 0; r < 4; r++ {
			tr.Graphs = append(tr.Graphs, &Graph{NPU: r, Nodes: nodes})
		}
		return tr
	}
	cycle := shared([]Node{
		{ID: 1, Kind: KindCompute, FLOPs: 1},
		{ID: 2, Kind: KindCompute, FLOPs: 1, Deps: []int{3}},
		{ID: 3, Kind: KindCompute, FLOPs: 1, Deps: []int{2}},
	})
	if err := cycle.Validate(); err == nil {
		t.Error("shared list with a cycle accepted")
	}
	unknown := shared([]Node{
		{ID: 1, Kind: KindCompute, FLOPs: 1},
		{ID: 2, Kind: KindCompute, FLOPs: 1, Deps: []int{9}},
	})
	if err := unknown.Validate(); err == nil {
		t.Error("shared list with an unknown dependency accepted")
	}

	// Rank 3's list holds the same first node and has the same length as
	// the list ranks 0-2 share, but a different second node.
	first := Node{ID: 1, Kind: KindCompute, FLOPs: 1}
	good := []Node{first, {ID: 2, Kind: KindCompute, FLOPs: 1, Deps: []int{1}}}
	bad := []Node{first, {ID: 2, Kind: KindCompute, FLOPs: 1, Deps: []int{7}}}
	tr := shared(good)
	tr.Graphs[3].Nodes = bad
	if err := tr.Validate(); err == nil {
		t.Error("list sharing only its first node with a valid list accepted")
	}
	tr.Graphs[3].Nodes = good
	if err := tr.Validate(); err != nil {
		t.Errorf("valid shared list rejected: %v", err)
	}
}

// Every single-defect trace reports exactly the text it always has. An
// unknown enum name is a decode error; TestDecodeUnknownEnumNames pins
// those texts.
func TestSingleDefectErrorTexts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(tr *Trace)
		want   string
	}{
		{"null node", func(tr *Trace) {
			// A JSON null in a node list decodes to a zero node.
			tr.Graphs[0].Nodes = nil
			if err := json.Unmarshal([]byte(`[null]`), &tr.Graphs[0].Nodes); err != nil {
				panic(err)
			}
		}, `et: npu 0 node 0: unknown node kind ""`},
		{"duplicate id", func(tr *Trace) { tr.Graphs[0].Nodes[1].ID = 1 }, "et: npu 0 has duplicate node id 1"},
		{"unknown dep", func(tr *Trace) { tr.Graphs[0].Nodes[1].Deps = []int{99} }, "et: npu 0 node 2 depends on unknown node 99"},
		{"self dep", func(tr *Trace) { tr.Graphs[0].Nodes[0].Deps = []int{1} }, "et: npu 0 node 1 depends on itself"},
		{"cycle", func(tr *Trace) { tr.Graphs[1].Nodes[0].Deps = []int{3} }, "et: npu 1 graph has a dependency cycle"},
		{"unset mem op", func(tr *Trace) {
			tr.Graphs[0].Nodes[0] = Node{ID: 1, Kind: KindMemory, MemLocation: MemLocal, TensorBytes: 8}
		}, `et: npu 0 node 1: memory node needs mem_op LOAD or STORE, got ""`},
		{"orphan send", func(tr *Trace) { tr.Graphs[1].Nodes = tr.Graphs[1].Nodes[:2] }, "et: 1 sends but 0 recvs for 0->1 tag 7"},
		{"orphan recv", func(tr *Trace) { tr.Graphs[0].Nodes = tr.Graphs[0].Nodes[:2] }, "et: 1 recvs with no send for 0->1 tag 7"},
		{"extra recv", func(tr *Trace) {
			tr.Graphs[1].Nodes = append(tr.Graphs[1].Nodes, Node{ID: 4, Kind: KindRecv, Peer: -1, Tag: 7, CommBytes: 4096})
		}, "et: 1 sends but 2 recvs for 0->1 tag 7"},
		{"size mismatch", func(tr *Trace) { tr.Graphs[1].Nodes[2].CommBytes = 8192 }, "et: size mismatch on 0->1 tag 7: send 4096 vs recv 8192"},
		{"send peer out of range", func(tr *Trace) { tr.Graphs[0].Nodes[2].Peer = 5 }, "et: npu 0 sends to out-of-range peer 5"},
		{"recv peer out of range", func(tr *Trace) { tr.Graphs[1].Nodes[2].Peer = 4 }, "et: npu 1 receives from out-of-range peer 5"},
		{"too many dependencies", func(tr *Trace) {
			// 2^15+1 nodes, each depending on the same 2^16 nodes: one
			// list with 2^31+2^16 dependency edges in a few megabytes.
			deps := make([]int, 1<<16)
			for i := range deps {
				deps[i] = i + 1
			}
			nodes := make([]Node, 1<<15+1)
			for i := range nodes {
				nodes[i] = Node{ID: i + 1, Kind: KindCompute, Deps: deps}
			}
			tr.Graphs[0].Nodes = nodes
		}, "et: npu 0 has 2147549184 dependencies; a list holds at most 2147483647"},
	}
	for _, c := range cases {
		tr := validTrace()
		c.mutate(tr)
		if err := tr.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}

// encodedPeers returns the peer of every node of doc, an encoded trace, by
// graph, as the JSON holds it.
func encodedPeers(t *testing.T, doc []byte) [][]int {
	t.Helper()
	var raw struct {
		Graphs []struct {
			Nodes []struct{ Peer int }
		}
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	var peers [][]int
	for _, g := range raw.Graphs {
		var ps []int
		for _, n := range g.Nodes {
			ps = append(ps, n.Peer)
		}
		peers = append(peers, ps)
	}
	return peers
}

// A send's or receive's peer is an offset from its graph's NPU: Plan.Peer
// resolves it, a negative offset is valid, and a resolved peer outside the
// machine is out of range. Encode writes ranks without touching the lists,
// and Decode reads them back as offsets.
func TestPeersAreOffsets(t *testing.T) {
	tr := validTrace()
	plans, err := tr.Plans()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 0} {
		if got := plans[i].Peer(&tr.Graphs[i].Nodes[2], tr.Graphs[i].NPU); got != want {
			t.Errorf("npu %d: resolved peer %d, want %d", i, got, want)
		}
	}
	var doc bytes.Buffer
	if err := tr.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	if got, want := encodedPeers(t, doc.Bytes()), [][]int{{0, 0, 1}, {0, 0, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("encoded peers %v, want %v", got, want)
	}
	if p := tr.Graphs[1].Nodes[2].Peer; p != -1 {
		t.Errorf("Encode rewrote an offset to %d", p)
	}
	back, err := Decode(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Graphs, tr.Graphs) {
		t.Errorf("decoded graphs differ from the encoded ones")
	}
	for _, c := range []struct {
		npu, peer int
		want      string
	}{
		{0, -1, "et: npu 0 sends to out-of-range peer -1"},
		{0, 2, "et: npu 0 sends to out-of-range peer 2"},
		{1, -2, "et: npu 1 receives from out-of-range peer -1"},
		{1, 1, "et: npu 1 receives from out-of-range peer 2"},
	} {
		tr := validTrace()
		tr.Graphs[c.npu].Nodes[2].Peer = c.peer
		if err := tr.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("offset %d on npu %d: got %v, want %q", c.peer, c.npu, err, c.want)
		}
	}
}

// A negative peer in JSON is a rank outside the machine, reported by the
// point-to-point check once every list has compiled: a defect that
// compiling finds in a later list is reported first.
func TestDecodeNegativePeer(t *testing.T) {
	send := `{"id":1,"kind":"COMM_SEND","peer":-1,"comm_bytes":8}`
	for _, c := range []struct{ doc, want string }{
		{`{"num_npus":2,"graphs":[{"npu":0,"nodes":[` + send + `]},{"npu":1,"nodes":[]}]}`,
			"et: npu 0 sends to out-of-range peer -1"},
		{`{"num_npus":2,"graphs":[{"npu":0,"nodes":[` + send + `]},{"npu":1,"nodes":[{"id":1,"kind":"COMP","deps":[1]}]}]}`,
			"et: npu 1 node 1 depends on itself"},
	} {
		if _, err := Decode(strings.NewReader(c.doc)); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.doc, err, c.want)
		}
	}
}

// With several faulty point-to-point channels, the lowest channel by
// (src, dst, tag) is reported, on every call: the report does not depend
// on map iteration order, and an orphan receive on a low channel is not
// passed over for a faulty send on a higher one.
func TestP2PFaultReportsLowestChannel(t *testing.T) {
	tr := &Trace{NumNPUs: 2, Graphs: []*Graph{{NPU: 0}, {NPU: 1}}}
	for tag := 1; tag <= 6; tag++ {
		tr.Graphs[0].Nodes = append(tr.Graphs[0].Nodes, Node{ID: tag, Kind: KindSend, Peer: 1, Tag: tag, CommBytes: 10})
		tr.Graphs[1].Nodes = append(tr.Graphs[1].Nodes, Node{ID: tag, Kind: KindRecv, Peer: -1, Tag: tag, CommBytes: 20})
	}
	check := func(want string) {
		t.Helper()
		for i := 0; i < 50; i++ {
			if err := tr.Validate(); err == nil || err.Error() != want {
				t.Fatalf("call %d: got %v, want %q", i, err, want)
			}
		}
	}
	check("et: size mismatch on 0->1 tag 1: send 10 vs recv 20")
	tr.Graphs[1].Nodes = append(tr.Graphs[1].Nodes, Node{ID: 7, Kind: KindRecv, Peer: -1, Tag: 0, CommBytes: 20})
	check("et: 1 recvs with no send for 0->1 tag 0")
}

// refPlan builds a list's dependents, in-degrees and roots from maps.
func refPlan(nodes []Node) (deps [][]int32, indeg, roots []int32) {
	pos := make(map[int]int32)
	for i, n := range nodes {
		pos[n.ID] = int32(i)
	}
	deps = make([][]int32, len(nodes))
	for i, n := range nodes {
		indeg = append(indeg, int32(len(n.Deps)))
		if len(n.Deps) == 0 {
			roots = append(roots, int32(i))
		}
		for _, d := range n.Deps {
			deps[pos[d]] = append(deps[pos[d]], int32(i))
		}
	}
	sort.Slice(roots, func(a, b int) bool { return nodes[roots[a]].ID < nodes[roots[b]].ID })
	return deps, indeg, roots
}

// cycleDFS reports whether following dependencies from some node leads
// back to a node on the current path.
func cycleDFS(nodes []Node) bool {
	byID := make(map[int]Node)
	for _, n := range nodes {
		byID[n.ID] = n
	}
	const onPath, done = 1, 2
	state := make(map[int]int)
	var visit func(id int) bool
	visit = func(id int) bool {
		switch state[id] {
		case onPath:
			return true
		case done:
			return false
		}
		state[id] = onPath
		for _, d := range byID[id].Deps {
			if visit(d) {
				return true
			}
		}
		state[id] = done
		return false
	}
	for _, n := range nodes {
		if visit(n.ID) {
			return true
		}
	}
	return false
}

// randomList draws up to 30 compute nodes with sparse, partly negative
// IDs. Node i depends on up to three other nodes, some twice; with acyclic
// set, only on nodes j < i. The list is then shuffled, so declaration
// order never gives the dependency order away.
func randomList(rng *rand.Rand, acyclic bool) []Node {
	n := rng.Intn(31)
	// Half the lists draw IDs from a window of 2n+1 consecutive values, so
	// their span is at most 2n (an ID table) or exactly 2n+1 (a map); the
	// rest spread them about 12n wide.
	ids, spread := rng.Perm(4*n+1), 3
	if rng.Intn(2) == 0 {
		ids, spread = rng.Perm(2*n+1), 1
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: spread*ids[i] - 40, Kind: KindCompute, FLOPs: 1}
	}
	for i := range nodes {
		nd := &nodes[i]
		for k := rng.Intn(4); k > 0 && n > 1; k-- {
			j := rng.Intn(n)
			if acyclic {
				if i == 0 {
					break
				}
				j = rng.Intn(i)
			}
			if j == i {
				continue
			}
			nd.Deps = append(nd.Deps, nodes[j].ID)
			if rng.Intn(5) == 0 {
				nd.Deps = append(nd.Deps, nodes[j].ID)
			}
		}
	}
	rng.Shuffle(n, func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
	return nodes
}

// checkPlan compares a plan with the map-built reference of its list.
func checkPlan(t *testing.T, p *Plan, nodes []Node) {
	t.Helper()
	deps, indeg, roots := refPlan(nodes)
	if len(p.Nodes()) != len(nodes) || (len(nodes) > 0 && &p.Nodes()[0] != &nodes[0]) {
		t.Fatal("plan does not hold the list it was compiled from")
	}
	for pos := range nodes {
		if got := p.Dependents(int32(pos)); !slices.Equal(got, deps[pos]) {
			t.Fatalf("dependents of position %d = %v, want %v", pos, got, deps[pos])
		}
	}
	if !slices.Equal(p.InDegrees(), indeg) {
		t.Fatalf("in-degrees = %v, want %v", p.InDegrees(), indeg)
	}
	if !slices.Equal(p.Roots(), roots) {
		t.Fatalf("roots = %v, want %v", p.Roots(), roots)
	}
}

// chain returns compute nodes with the given IDs, each depending on the
// one before it.
func chain(ids ...int) []Node {
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id, Kind: KindCompute, FLOPs: 1}
		if i > 0 {
			nodes[i].Deps = []int{ids[i-1]}
		}
	}
	return nodes
}

// The compile pass agrees with references built from maps and a DFS over
// random lists with sparse, shuffled IDs and duplicate dependencies: the
// plan's dependents, in-degrees and roots equal the reference's, and a
// cycle is reported exactly when the DFS finds one. Lists at the ID
// table's edges compile the same way, and the table serves exactly the
// lists whose ID span is at most twice their length.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cyclic, acyclic int
	for iter := 0; iter < 4000; iter++ {
		nodes := randomList(rng, iter%2 == 0)
		p, err := compile(0, nodes)
		if cycleDFS(nodes) {
			cyclic++
			if err == nil || err.Error() != "et: npu 0 graph has a dependency cycle" {
				t.Fatalf("list with a cycle: got %v", err)
			}
			continue
		}
		acyclic++
		if err != nil {
			t.Fatalf("acyclic list rejected: %v", err)
		}
		checkPlan(t, p, nodes)
	}
	if cyclic < 100 || acyclic < 100 {
		t.Fatalf("drew %d cyclic and %d acyclic lists; want both kinds", cyclic, acyclic)
	}

	// Gapped IDs: a chain of three runs of IDs 1-4, offset by 5 each.
	gapped := chain(1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14)
	edges := []struct {
		name  string
		nodes []Node
		table bool
	}{
		// The span of int's two ends overflows int, and even uint64 by one.
		{"both ends of int", chain(math.MinInt, 0, math.MaxInt), false},
		{"near the lowest int", chain(math.MinInt+2, math.MinInt, math.MinInt+1), true},
		{"near the highest int", chain(math.MaxInt, math.MaxInt-2, math.MaxInt-1), true},
		{"span 2n", chain(10, 12, 15), true},
		{"span 2n+1", chain(10, 12, 16), false},
		{"gapped IDs", gapped, true},
	}
	for _, c := range edges {
		if table := newIDIndex(c.nodes).m == nil; table != c.table {
			t.Errorf("%s: ID table %v, want %v", c.name, table, c.table)
		}
		p, err := compile(0, c.nodes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkPlan(t, p, c.nodes)
		// A dependency on an ID just outside the list's span, or at either
		// end of int, is unknown, not a wrapped-around table slot.
		byID := func(a, b Node) int { return cmp.Compare(a.ID, b.ID) }
		lo, hi := slices.MinFunc(c.nodes, byID).ID, slices.MaxFunc(c.nodes, byID).ID
		for _, d := range []int{math.MinInt, math.MaxInt, lo - 1, hi + 1, 0} {
			if slices.ContainsFunc(c.nodes, func(n Node) bool { return n.ID == d }) {
				continue
			}
			bad := slices.Clone(c.nodes)
			bad[1].Deps = []int{d}
			want := fmt.Sprintf("et: npu 0 node %d depends on unknown node %d", bad[1].ID, d)
			if _, err := compile(0, bad); err == nil || err.Error() != want {
				t.Errorf("%s, dep %d: got %v, want %q", c.name, d, err, want)
			}
		}
	}
}

// Plans compiles each distinct list once: graphs that share a list share
// its plan, and a list that starts at the same slot as another but is
// longer is distinct.
func TestPlansShareExactlyTheSharedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		// long extends short's array, so the two share their first slot.
		short := append(make([]Node, 0, 32), randomList(rng, true)...)
		extra := Node{ID: 1000, Kind: KindCompute}
		if len(short) > 0 {
			extra.Deps = []int{short[0].ID, short[0].ID}
		}
		long := append(short, extra, Node{ID: 1001, Kind: KindCompute, Deps: []int{1000}})
		lists := [][]Node{short, long, randomList(rng, true), nil}
		tr := &Trace{NumNPUs: 8}
		for r := 0; r < 8; r++ {
			tr.Graphs = append(tr.Graphs, &Graph{NPU: r, Nodes: lists[rng.Intn(len(lists))]})
		}
		plans, err := tr.Plans()
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range tr.Graphs {
			checkPlan(t, plans[i], g.Nodes)
			for j, h := range tr.Graphs {
				same := len(g.Nodes) == len(h.Nodes) && (len(g.Nodes) == 0 || &g.Nodes[0] == &h.Nodes[0])
				if (plans[i] == plans[j]) != same {
					t.Fatalf("graphs %d and %d: shared plan %v, shared list %v", i, j, plans[i] == plans[j], same)
				}
			}
		}
	}
}

// refMatchP2P is the reference point-to-point matcher: one record per
// rank's send or receive, bucketed by sender and sorted by (dst, tag,
// sends before receives, list position), so each channel is a run of sends
// in list order followed by its receives, checked in (src, dst, tag)
// order. Out-of-range peers are reported first, in Graphs and list order.
func refMatchP2P(t *Trace) error {
	type record struct {
		dst, tag int
		size     int64
		pos      int
		recv     bool
	}
	buckets := make([][]record, t.NumNPUs)
	for _, g := range t.Graphs {
		for k, n := range g.Nodes {
			if n.Kind != KindSend && n.Kind != KindRecv {
				continue
			}
			peer := g.NPU + n.Peer
			if n.Kind == KindSend {
				if peer < 0 || peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d sends to out-of-range peer %d", g.NPU, peer)
				}
				buckets[g.NPU] = append(buckets[g.NPU], record{dst: peer, tag: n.Tag, size: n.CommBytes, pos: k})
				continue
			}
			if peer < 0 || peer >= t.NumNPUs {
				return fmt.Errorf("et: npu %d receives from out-of-range peer %d", g.NPU, peer)
			}
			buckets[peer] = append(buckets[peer], record{dst: g.NPU, tag: n.Tag, size: n.CommBytes, pos: k, recv: true})
		}
	}
	for src, bucket := range buckets {
		slices.SortFunc(bucket, func(a, b record) int {
			switch {
			case a.dst != b.dst:
				return cmp.Compare(a.dst, b.dst)
			case a.tag != b.tag:
				return cmp.Compare(a.tag, b.tag)
			case a.recv != b.recv:
				if a.recv {
					return 1
				}
				return -1
			}
			return cmp.Compare(a.pos, b.pos)
		})
		for i := 0; i < len(bucket); {
			dst, tag := bucket[i].dst, bucket[i].tag
			j, m := i, i // the channel's sends are bucket[i:m], its receives bucket[m:j]
			for ; j < len(bucket) && bucket[j].dst == dst && bucket[j].tag == tag; j++ {
				if !bucket[j].recv {
					m++
				}
			}
			sends, recvs := bucket[i:m], bucket[m:j]
			if len(sends) == 0 {
				return fmt.Errorf("et: %d recvs with no send for %d->%d tag %d", len(recvs), src, dst, tag)
			}
			if len(sends) != len(recvs) {
				return fmt.Errorf("et: %d sends but %d recvs for %d->%d tag %d", len(sends), len(recvs), src, dst, tag)
			}
			for k, s := range sends {
				if s.size != recvs[k].size {
					return fmt.Errorf("et: size mismatch on %d->%d tag %d: send %d vs recv %d", src, dst, tag, s.size, recvs[k].size)
				}
			}
			i = j
		}
	}
	return nil
}

// refValidate is Plans with the reference matcher, for traces whose shape
// is valid: each graph's list is compiled in Graphs order, so a list's
// first graph reports its defect, as in Plans.
func refValidate(t *Trace) error {
	for _, g := range t.Graphs {
		if _, err := compile(g.NPU, g.Nodes); err != nil {
			return err
		}
	}
	return refMatchP2P(t)
}

// p2pTrace builds a small trace of sends and receives from fuzz input.
// It has n = 2 + npus%7 NPUs. Flag bit 0 gives every rank its own list;
// otherwise 1 + (flags>>2)%3 lists are shared, rank r holding list
// assign[r] modulo that count (0 past the end of assign). Bit 1 lists the
// graphs in descending NPU order. Each 4 bytes of nodes, at most 64 of
// them, add a node to a list; h is the lowest rank holding that list (0 if
// none does).
//   - Byte 0: bit 0 makes the node a receive, not a send, and the rest,
//     shifted right twice, modulo the list count, picks its list. With bit
//     1 set, the matching receive or send also joins the list of the rank
//     h exchanges with, if that rank exists.
//   - Byte 1 picks the rank h exchanges with, byte%n, except that 254 is
//     rank -1 and 255 rank n, both outside the machine. The peer is that
//     rank's offset from h.
//   - Byte 2 is the tag, byte%5-1.
//   - Byte 3 is the size, 1+byte%3; a matching node added by bit 1 of
//     byte 0 is one larger when byte 3 is 128 or more.
func p2pTrace(npus, flags uint8, assign, nodes []byte) *Trace {
	n := 2 + int(npus)%7
	t := &Trace{NumNPUs: n}
	nlists := 1 + int(flags>>2)%3
	if flags&1 != 0 {
		nlists = n
	}
	listOf := make([]int, n) // each rank's list
	holder := make([]int, nlists)
	for r := n - 1; r >= 0; r-- {
		if flags&1 != 0 {
			listOf[r] = r
		} else if r < len(assign) {
			listOf[r] = int(assign[r]) % nlists
		}
		holder[listOf[r]] = r
	}
	lists := make([][]Node, nlists)
	add := func(l int, nd Node) {
		nd.ID = len(lists[l]) + 1
		lists[l] = append(lists[l], nd)
	}
	for k := 0; k+4 <= len(nodes) && k < 4*64; k += 4 {
		c := nodes[k : k+4]
		l := int(c[0]>>2) % nlists
		h, to := holder[l], int(c[1])%n
		switch c[1] {
		case 254:
			to = -1
		case 255:
			to = n
		}
		nd := Node{Kind: KindSend, Peer: to - h, Tag: int(c[2]%5) - 1, CommBytes: 1 + int64(c[3]%3)}
		if c[0]&1 != 0 {
			nd.Kind = KindRecv
		}
		add(l, nd)
		if c[0]&2 != 0 && to >= 0 && to < n {
			match := Node{Kind: KindSend + KindRecv - nd.Kind, Peer: h - to, Tag: nd.Tag, CommBytes: nd.CommBytes + int64(c[3]>>7)}
			add(listOf[to], match)
		}
	}
	for r := 0; r < n; r++ {
		t.Graphs = append(t.Graphs, &Graph{NPU: r, Nodes: lists[listOf[r]]})
	}
	if flags&2 != 0 {
		slices.Reverse(t.Graphs)
	}
	return t
}

// p2pSeed is one FuzzMatchP2P input and the error Plans reports for it.
type p2pSeed struct {
	npus, flags   uint8
	assign, nodes []byte
	want          string
}

// p2pSeeds covers every point-to-point error. On 4 NPUs (npus 2), a node
// of list l has byte 0 4l (a send) or 4l+1 (a receive), plus 2 to add its
// matching node, and byte 1 names rank r as r, rank -1 as 254 and rank 4
// as 255.
func p2pSeeds() []p2pSeed {
	// chain is a 4-NPU chain in three shared lists: rank 0 sends to rank
	// 1, ranks 1 and 2 receive from the rank before and send to the rank
	// after, and rank 3 receives, all on tag 0 with size 1.
	chain := []byte{
		0, 1, 1, 0, // list 0, held by rank 0: send to rank 1
		4, 2, 1, 0, // list 1, held first by rank 1: send to rank 2
		5, 0, 1, 0, // list 1: receive from rank 0
		9, 2, 1, 0, // list 2, held by rank 3: receive from rank 2
	}
	const shared3 = 2 << 2 // three shared lists
	classes := []byte{0, 1, 1, 2}
	with := func(nodes []byte, extra ...byte) []byte { return append(slices.Clone(nodes), extra...) }
	mismatch := slices.Clone(chain)
	mismatch[15] = 1 // list 2's receive has size 2
	return []p2pSeed{
		{2, shared3, classes, chain, ""},
		{2, shared3, classes, mismatch, "et: size mismatch on 2->3 tag 0: send 1 vs recv 2"},
		// The middle list receives a second time on tag 0: its first rank's
		// sender holds one send, and the pair 0->1 comes first.
		{2, shared3, classes, with(chain, 5, 0, 1, 0), "et: 1 sends but 2 recvs for 0->1 tag 0"},
		// The middle list also receives on tag 2, which nobody sends; its
		// first rank's receive from rank 0 comes first.
		{2, shared3, classes, with(chain, 5, 0, 3, 0), "et: 1 recvs with no send for 0->1 tag 2"},
		// Per-rank lists, each send with its matching receive: a chain
		// 0->1->2->3, then the same with the last receive one larger.
		{2, 1, nil, []byte{2, 1, 1, 0, 6, 2, 1, 0, 10, 3, 1, 0}, ""},
		{2, 1, nil, []byte{2, 1, 1, 0, 6, 2, 1, 0, 10, 3, 1, 129}, "et: size mismatch on 2->3 tag 0: send 1 vs recv 2"},
		// Every rank shares one list that sends to the next rank: the last
		// rank's send leaves the machine.
		{2, 0, nil, []byte{0, 1, 1, 0}, "et: npu 3 sends to out-of-range peer 4"},
		// The same list receiving from the rank before: listed in
		// descending NPU order, rank 0 is still the first out of range.
		{2, 2, nil, []byte{1, 254, 1, 0}, "et: npu 0 receives from out-of-range peer -1"},
		// Per-rank lists: rank 0 sends to rank 1 on tag 1, rank 1 receives
		// from rank 0 on tag 2, and then also from rank 4, past the
		// machine.
		{2, 1, nil, []byte{0, 1, 2, 0, 5, 0, 3, 0}, "et: 1 sends but 0 recvs for 0->1 tag 1"},
		{2, 1, nil, []byte{0, 1, 2, 0, 5, 0, 3, 0, 5, 255, 1, 0}, "et: npu 1 receives from out-of-range peer 4"},
		// One shared list in which every rank sends to itself, and none
		// receives.
		{2, 0, nil, []byte{0, 0, 1, 0}, "et: 1 sends but 0 recvs for 0->0 tag 0"},
		// The same list sending to the rank before: rank 0's send leaves
		// the machine.
		{2, 0, nil, []byte{0, 254, 1, 0}, "et: npu 0 sends to out-of-range peer -1"},
	}
}

// checkMatchesReference requires Plans to report exactly the reference
// matcher's error, or nil, for tr.
func checkMatchesReference(t *testing.T, tr *Trace) {
	t.Helper()
	_, err := tr.Plans()
	if got, want := fmt.Sprint(err), fmt.Sprint(refValidate(tr)); got != want {
		t.Fatalf("Plans: %s; the reference matcher: %s", got, want)
	}
}

// The seeds report the errors they were written for, and together they
// reach every point-to-point error.
func TestP2PSeedsCoverEveryFault(t *testing.T) {
	kinds := []string{"sends to out-of-range", "receives from out-of-range", "recvs with no send", "sends but", "size mismatch"}
	seen := make(map[string]bool)
	for _, s := range p2pSeeds() {
		tr := p2pTrace(s.npus, s.flags, s.assign, s.nodes)
		_, err := tr.Plans()
		if got := fmt.Sprint(err); (s.want == "" && err != nil) || (s.want != "" && got != s.want) {
			t.Errorf("seed %v: got %v, want %q", s.nodes, err, s.want)
		}
		checkMatchesReference(t, tr)
		for _, k := range kinds {
			seen[k] = seen[k] || strings.Contains(s.want, k)
		}
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("no seed reports %q", k)
		}
	}
}

// Plans matches point-to-point traffic exactly as the reference matcher
// does on random small traces, most of them faulty.
func TestMatchP2PMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	faulty := 0
	for iter := 0; iter < 3000; iter++ {
		assign, nodes := make([]byte, 8), make([]byte, 4*rng.Intn(17))
		rng.Read(assign)
		rng.Read(nodes)
		tr := p2pTrace(uint8(rng.Intn(256)), uint8(rng.Intn(256)), assign, nodes)
		checkMatchesReference(t, tr)
		if tr.Validate() != nil {
			faulty++
		}
	}
	if faulty < 1000 || faulty > 2900 {
		t.Fatalf("%d of 3000 random traces faulty; want most but not all", faulty)
	}
}

// FuzzMatchP2P checks the point-to-point matcher against the reference
// per-record matcher on small generated traces (see p2pTrace): shared and
// per-rank lists, and random peers, tags and sizes, so that most inputs are
// faulty. Plans must report the
// reference's error text, or nil when the reference finds no fault.
func FuzzMatchP2P(f *testing.F) {
	for _, s := range p2pSeeds() {
		f.Add(s.npus, s.flags, s.assign, s.nodes)
	}
	f.Fuzz(func(t *testing.T, npus, flags uint8, assign, nodes []byte) {
		checkMatchesReference(t, p2pTrace(npus, flags, assign, nodes))
	})
}
