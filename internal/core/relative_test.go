package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/topology"
	"repro/internal/units"
)

// expand returns tr as a per-rank trace with absolute peers, the shape
// et.Decode and convert produce: every graph gets its own copy of its
// list, with rank-relative peers resolved.
func expand(tr *et.Trace) *et.Trace {
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs, Iterations: tr.Iterations}
	for _, g := range tr.Graphs {
		nodes := slices.Clone(g.Nodes)
		for i := range nodes {
			if n := &nodes[i]; tr.RelativePeers && (n.Kind == et.KindSend || n.Kind == et.KindRecv) {
				n.Peer += g.NPU
			}
		}
		out.Graphs = append(out.Graphs, &et.Graph{NPU: g.NPU, Nodes: nodes})
	}
	return out
}

// relativeRewrite returns tr with rank-relative peers: every graph gets its
// own copy of its list, with each send's and receive's peer made an offset
// from the graph's NPU. It is expand's inverse.
func relativeRewrite(tr *et.Trace) *et.Trace {
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs, Iterations: tr.Iterations, RelativePeers: true}
	for _, g := range tr.Graphs {
		nodes := slices.Clone(g.Nodes)
		for i := range nodes {
			if n := &nodes[i]; n.Kind == et.KindSend || n.Kind == et.KindRecv {
				n.Peer -= g.NPU
			}
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

// TestSharedListsMatchPerRankLists: the pipeline generators hand every
// rank of a stage class one list with rank-relative peers, three lists
// with three or more stages and two with two, and each trace runs, at one
// and at three iterations with transit charging, exactly as the same trace
// expanded to per-rank lists with absolute peers.
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
		if !tr.RelativePeers || distinctLists(tr) != c.lists {
			t.Fatalf("%s: relative peers %v, %d distinct lists; want relative peers and %d lists",
				c.name, tr.RelativePeers, distinctLists(tr), c.lists)
		}
		perRank := expand(tr)
		if n := distinctLists(perRank); n != tr.NumNPUs {
			t.Fatalf("%s: expanded trace has %d lists for %d ranks", c.name, n, tr.NumNPUs)
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
	}
}
