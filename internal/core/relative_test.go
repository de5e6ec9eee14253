package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/topology"
	"repro/internal/units"
)

// unshare returns tr with a copy of its list for every graph, the shape
// et.Decode and convert produce.
func unshare(tr *et.Trace) *et.Trace {
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs, Iterations: tr.Iterations}
	for _, g := range tr.Graphs {
		out.Graphs = append(out.Graphs, &et.Graph{NPU: g.NPU, Nodes: slices.Clone(g.Nodes)})
	}
	return out
}

// share returns tr with graphs whose lists are equal sharing one slice, as
// the ranks of a pipeline stage class do. It is unshare's inverse.
func share(tr *et.Trace) *et.Trace {
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs, Iterations: tr.Iterations}
	var lists [][]et.Node
	for _, g := range tr.Graphs {
		nodes := g.Nodes
		if k := slices.IndexFunc(lists, func(l []et.Node) bool { return reflect.DeepEqual(l, nodes) }); k >= 0 {
			nodes = lists[k]
		} else {
			lists = append(lists, nodes)
		}
		out.Graphs = append(out.Graphs, &et.Graph{NPU: g.NPU, Nodes: nodes})
	}
	return out
}

// distinctLists counts the node lists a trace's graphs hold.
func distinctLists(tr *et.Trace) int {
	lists := make(map[*et.Node]bool)
	for _, g := range tr.Graphs {
		if len(g.Nodes) > 0 {
			lists[&g.Nodes[0]] = true
		}
	}
	return len(lists)
}

// withListFault returns tr with every graph that holds list given mutate's
// copy of it instead, or nil when mutate finds nothing to change.
func withListFault(tr *et.Trace, list []et.Node, mutate func(nodes []et.Node) []et.Node) *et.Trace {
	faulty := mutate(slices.Clone(list))
	if faulty == nil {
		return nil
	}
	out := *tr
	out.Graphs = nil
	for _, g := range tr.Graphs {
		if len(g.Nodes) > 0 && &g.Nodes[0] == &list[0] {
			g = &et.Graph{NPU: g.NPU, Nodes: faulty}
		}
		out.Graphs = append(out.Graphs, g)
	}
	return &out
}

// p2pFault is a point-to-point defect that TestSharedListsMatchPerRankLists
// injects into one shared list: inject changes the list, or returns nil
// when the list lacks the node it changes.
type p2pFault struct {
	name   string
	inject func(nodes []et.Node) []et.Node
}

func p2pFaults(npus int) []p2pFault {
	first := func(kind et.NodeKind, change func(n *et.Node)) func(nodes []et.Node) []et.Node {
		return func(nodes []et.Node) []et.Node {
			for i := range nodes {
				if nodes[i].Kind == kind {
					change(&nodes[i])
					return nodes
				}
			}
			return nil
		}
	}
	extraRecv := func(nodes []et.Node) []et.Node {
		for _, n := range nodes {
			if n.Kind == et.KindRecv {
				n.ID, n.Deps = slices.MaxFunc(nodes, func(a, b et.Node) int { return cmp.Compare(a.ID, b.ID) }).ID+1, nil
				return append(nodes, n)
			}
		}
		return nil
	}
	return []p2pFault{
		{"receive size", first(et.KindRecv, func(n *et.Node) { n.CommBytes++ })},
		{"send tag", first(et.KindSend, func(n *et.Node) { n.Tag += 1000 })},
		{"receive tag", first(et.KindRecv, func(n *et.Node) { n.Tag-- })},
		{"send out of range", first(et.KindSend, func(n *et.Node) { n.Peer += npus })},
		{"extra receive", extraRecv},
	}
}

// TestSharedListsMatchPerRankLists: the pipeline generators hand every
// rank of a stage class one list, three lists with three or more stages
// and two with two, and each trace runs, at one and at three iterations
// with transit charging, exactly as the same trace with a copy of its list
// per rank. With a point-to-point defect injected into any one of its
// shared lists, a trace reports the same error as its per-rank copy.
func TestSharedListsMatchPerRankLists(t *testing.T) {
	ring := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond})
	twoDim := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(300), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: units.Microsecond},
	)
	pipeline := func(stages int, grad units.ByteSize) func() (*et.Trace, error) {
		return func() (*et.Trace, error) {
			return etgen.Pipeline(ring, etgen.PipelineConfig{
				Name: "pp", Stages: stages, MicroBatches: 3, FlopsPerStage: 1e12,
				ActivationBytes: 8 * units.MiB, GradBytes: grad,
			})
		}
	}
	threeD := func(mp, stages int) func() (*et.Trace, error) {
		return func() (*et.Trace, error) {
			return etgen.ThreeD(twoDim, etgen.ThreeDConfig{
				Model: etgen.TransformerConfig{
					Name: "t", Params: 4e9, Layers: 8, Hidden: 2048, SeqLen: 512, MicroBatch: 1, BytesPerElem: 2, MP: mp,
				},
				Stages: stages, MicroBatches: 2,
			})
		}
	}
	cases := []struct {
		name  string
		top   *topology.Topology
		gen   func() (*et.Trace, error)
		lists int
	}{
		{"pipeline, 4 stages with DP", ring, pipeline(4, 64*units.MiB), 3},
		{"pipeline, one rank per stage", ring, pipeline(8, 64*units.MiB), 3},
		{"pipeline, no gradients", ring, pipeline(4, 0), 3},
		{"3D, MP>1", twoDim, threeD(4, 4), 3},
		{"3D, MP=1", twoDim, threeD(1, 4), 3},
		{"3D, 2 stages", twoDim, threeD(2, 2), 2},
	}
	for _, c := range cases {
		tr, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := distinctLists(tr); n != c.lists {
			t.Fatalf("%s: %d distinct lists, want %d", c.name, n, c.lists)
		}
		perRank := unshare(tr)
		if n := distinctLists(perRank); n != tr.NumNPUs {
			t.Fatalf("%s: unshared trace has %d lists for %d ranks", c.name, n, tr.NumNPUs)
		}
		cfg := testConfig(t, c.top)
		cfg.ModelTransitCongestion = true
		for _, iters := range []int{1, 3} {
			tr.Iterations, perRank.Iterations = iters, iters
			got, want := run(t, cfg, tr), run(t, cfg, perRank)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s x%d: shared lists differ from per-rank lists: makespan %v vs %v, events %d vs %d",
					c.name, iters, got.Makespan, want.Makespan, got.Events, want.Events)
			}
		}
		for _, fault := range p2pFaults(tr.NumNPUs) {
			faulted := make(map[*et.Node]bool) // each shared list once
			for _, g := range tr.Graphs {
				if len(g.Nodes) == 0 || faulted[&g.Nodes[0]] {
					continue
				}
				faulted[&g.Nodes[0]] = true
				faulty := withListFault(tr, g.Nodes, fault.inject)
				if faulty == nil {
					continue
				}
				got, want := faulty.Validate(), unshare(faulty).Validate()
				if got == nil || got.Error() != errText(want) {
					t.Errorf("%s, %s in npu %d's list: got %v, want %v", c.name, fault.name, g.NPU, got, want)
				}
			}
		}
	}
}

// TestReversedGraphOrderRunsAlike: plans are indexed by rank, so a trace
// whose graphs are listed in reverse rank order plans each rank's own list
// and runs to the same RunStats as in rank order: a pipeline, whose ranks
// all run, and a transformer, whose run folds.
func TestReversedGraphOrderRunsAlike(t *testing.T) {
	top, err := topology.ParseWithBandwidth("R(2)_FC(4)_SW(2)", []float64{250, 200, 50}, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := etgen.Pipeline(top, etgen.PipelineConfig{
		Name: "pp", Stages: 4, MicroBatches: 3, FlopsPerStage: 1e12,
		ActivationBytes: 8 * units.MiB, GradBytes: 64 * units.MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	gpt, err := etgen.Transformer(top, etgen.TransformerConfig{Name: "t", Params: 4e9, Layers: 2, Hidden: 1024, SeqLen: 256, MicroBatch: 1, BytesPerElem: 2, MP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*et.Trace{pipe, gpt} {
		reversed := *tr
		reversed.Graphs = slices.Clone(tr.Graphs)
		slices.Reverse(reversed.Graphs)
		plans, err := reversed.Plans()
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		for _, g := range reversed.Graphs {
			if nodes := plans[g.NPU].Nodes(); len(nodes) != len(g.Nodes) || &nodes[0] != &g.Nodes[0] {
				t.Errorf("%s: npu %d's plan does not hold its own list", tr.Name, g.NPU)
			}
		}
		cfg := testConfig(t, top)
		got, want := run(t, cfg, &reversed), run(t, cfg, tr)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reversed graphs differ from rank order: makespan %v vs %v, events %d vs %d",
				tr.Name, got.Makespan, want.Makespan, got.Events, want.Events)
		}
	}
}
