package et

import (
	"testing"
)

func twoNPUTrace() *Trace {
	return &Trace{
		Name:    "iter",
		NumNPUs: 2,
		Graphs: []*Graph{
			{NPU: 0, Nodes: []Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9},
				{ID: 2, Kind: KindSend, Deps: []int{1}, Peer: 1, Tag: 3, CommBytes: 64},
			}},
			{NPU: 1, Nodes: []Node{
				{ID: 1, Kind: KindRecv, Peer: 0, Tag: 3, CommBytes: 64},
				{ID: 2, Kind: KindCompute, Deps: []int{1}, FLOPs: 1e9},
			}},
		},
	}
}

func TestRepeatValidatesAndScales(t *testing.T) {
	tr := twoNPUTrace()
	out, err := Repeat(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount() != 3*tr.NodeCount() {
		t.Errorf("NodeCount = %d, want %d", out.NodeCount(), 3*tr.NodeCount())
	}
	if out.Name != "iterx3" {
		t.Errorf("Name = %q", out.Name)
	}
}

func TestRepeatChainsIterations(t *testing.T) {
	out, err := Repeat(twoNPUTrace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// NPU 0's second-iteration entry (clone of node 1) must depend on the
	// first iteration's exit (node 2).
	g := out.Graphs[0]
	second := g.Nodes[2] // iteration 1's first node
	if len(second.Deps) != 1 || second.Deps[0] != 2 {
		t.Errorf("iteration boundary deps = %v, want [2]", second.Deps)
	}
}

func TestRepeatRemapsTags(t *testing.T) {
	out, err := Repeat(twoNPUTrace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var tags []int
	for _, n := range out.Graphs[0].Nodes {
		if n.Kind == KindSend {
			tags = append(tags, n.Tag)
		}
	}
	if len(tags) != 2 || tags[0] == tags[1] {
		t.Errorf("send tags = %v, want two distinct", tags)
	}
}

func TestRepeatEdgeCases(t *testing.T) {
	if _, err := Repeat(twoNPUTrace(), 0); err == nil {
		t.Error("n=0 accepted")
	}
	tr := twoNPUTrace()
	same, err := Repeat(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != tr {
		t.Error("n=1 should return the input unchanged")
	}
	bad := twoNPUTrace()
	bad.Graphs[0].Nodes[1].Peer = 9
	if _, err := Repeat(bad, 2); err == nil {
		t.Error("invalid input accepted")
	}
}

// TestRepeatKeepsSharedLists: ranks that share one node list still share
// one (repeated) list, so per-list validation and plan compilation
// downstream run once per distinct list rather than once per rank.
func TestRepeatKeepsSharedLists(t *testing.T) {
	shared := []Node{
		{ID: 1, Kind: KindCompute, FLOPs: 1e9},
		{ID: 2, Kind: KindComm, Deps: []int{1}, Collective: CollAllReduce, CommBytes: 64},
	}
	tr := &Trace{Name: "sym", NumNPUs: 3}
	for r := 0; r < 3; r++ {
		tr.Graphs = append(tr.Graphs, &Graph{NPU: r, Nodes: shared})
	}
	out, err := Repeat(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := out.Plans()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans[1:] {
		if p != plans[0] {
			t.Fatalf("npu %d has its own repeated list; want the list shared by every rank", out.Graphs[i+1].NPU)
		}
	}
	if got := len(plans[0].Nodes()); got != 4 {
		t.Errorf("repeated list has %d nodes, want 4", got)
	}
	if &out.Graphs[0].Nodes[0] == &shared[0] {
		t.Error("Repeat returned the input list itself")
	}
}
