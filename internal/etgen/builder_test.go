package etgen

import (
	"runtime"
	"testing"

	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// checkExactList fails unless nodes fills its array exactly and the nodes'
// deps are adjacent windows, in node order, of one array that they fill
// exactly.
func checkExactList(t *testing.T, name string, npu int, nodes []et.Node) {
	t.Helper()
	if len(nodes) != cap(nodes) {
		t.Errorf("%s: npu %d: %d nodes in an array of %d", name, npu, len(nodes), cap(nodes))
	}
	var all []int // the shared deps array, reached through the first node with deps
	used := 0
	for i := range nodes {
		d := nodes[i].Deps
		if len(d) == 0 {
			continue
		}
		if all == nil {
			all = d[:cap(d)]
		}
		if used+len(d) > len(all) || &d[0] != &all[used] {
			t.Errorf("%s: npu %d: node %d's deps are not the next window of the list's deps array", name, npu, nodes[i].ID)
			return
		}
		used += len(d)
	}
	if used != len(all) {
		t.Errorf("%s: npu %d: deps array of %d holds %d deps", name, npu, len(all), used)
	}
}

// Every generator, on every branch, sizes each node list and its deps
// array exactly: a wrong count would cost a regrowth per list, or leave
// slack in every list of a per-rank trace. (A transformer with MP=1 and no
// DP would need a one-NPU machine, which no topology has.)
func TestGeneratorsSizeListsExactly(t *testing.T) {
	twoDim := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(300)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	moe := func(inSwitch bool, a2a units.ByteSize) MoEConfig {
		return MoEConfig{
			Name: "moe", Layers: 3, LayerParamBytes: 64 * units.MB, ShardBytes: 8 * units.MB,
			A2ABytes: a2a, FlopsPerLayer: 1e12, UseInSwitch: inSwitch,
		}
	}
	pipeline := func(stages int, grad units.ByteSize) PipelineConfig {
		return PipelineConfig{
			Name: "pp", Stages: stages, MicroBatches: 5,
			FlopsPerStage: 1e12, ActivationBytes: units.MB, GradBytes: grad,
		}
	}
	cases := []struct {
		name string
		gen  func() (*et.Trace, error)
	}{
		{"transformer MP=1 with DP", func() (*et.Trace, error) { return Transformer(wafer(8), tinyModel(1)) }},
		{"transformer MP>1 with DP", func() (*et.Trace, error) { return Transformer(wafer(8), tinyModel(4)) }},
		{"transformer MP>1 without DP", func() (*et.Trace, error) { return Transformer(wafer(8), tinyModel(8)) }},
		{"dlrm", func() (*et.Trace, error) { return DLRMTrace(wafer(8), DLRM()) }},
		{"moe network with all-to-all", func() (*et.Trace, error) { return MoETrace(wafer(8), moe(false, 16*units.MB)) }},
		{"moe network without all-to-all", func() (*et.Trace, error) { return MoETrace(wafer(8), moe(false, 0)) }},
		{"moe in-switch with all-to-all", func() (*et.Trace, error) { return MoETrace(wafer(8), moe(true, 16*units.MB)) }},
		{"moe in-switch without all-to-all", func() (*et.Trace, error) { return MoETrace(wafer(8), moe(true, 0)) }},
		{"fsdp", func() (*et.Trace, error) { return FSDP(wafer(8), FSDPConfig{Model: tinyModel(1)}) }},
		{"threed MP>1 with DP", func() (*et.Trace, error) {
			return ThreeD(twoDim, ThreeDConfig{Model: tinyModel(4), Stages: 4, MicroBatches: 3})
		}},
		{"threed MP=1 with DP", func() (*et.Trace, error) {
			return ThreeD(twoDim, ThreeDConfig{Model: tinyModel(1), Stages: 4, MicroBatches: 3})
		}},
		{"threed MP>1 without DP", func() (*et.Trace, error) {
			return ThreeD(twoDim, ThreeDConfig{Model: tinyModel(8), Stages: 4, MicroBatches: 3})
		}},
		{"pipeline with DP", func() (*et.Trace, error) { return Pipeline(twoDim, pipeline(4, units.MB)) }},
		{"pipeline without gradients", func() (*et.Trace, error) { return Pipeline(twoDim, pipeline(4, 0)) }},
		{"pipeline one rank per stage", func() (*et.Trace, error) { return Pipeline(wafer(8), pipeline(8, units.MB)) }},
		{"single collective", func() (*et.Trace, error) {
			return SingleCollective(wafer(8), et.CollAllReduce, units.MB), nil
		}},
	}
	for _, c := range cases {
		tr, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, g := range tr.Graphs {
			checkExactList(t, c.name, g.NPU, g.Nodes)
		}
	}
}

// pipelineTrace is a 64-NPU pipeline on FC(8)_SW(8): 8 stages of 8 ranks,
// 32 microbatches, 11,328 nodes.
func pipelineTrace(t testing.TB) *et.Trace {
	top, err := topology.ParseWithBandwidth("FC(8)_SW(8)", []float64{200, 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Pipeline(top, PipelineConfig{
		Name: "pp", Stages: 8, MicroBatches: 32,
		FlopsPerStage: 1e12, ActivationBytes: 16 * units.MiB, GradBytes: 256 * units.MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Building and compiling a pipeline trace allocates per stage class, not
// per rank or per node (about 220 and 17 allocations here for 64 ranks):
// two objects per class list for its nodes and their deps, and four for
// its plan, plus the names of the nodes, formatted once for every class,
// and the machine's topology. Compiling allocates bytes per list too,
// about 17 KB here, where one 32-byte record per rank's send or receive
// (7,168 of them) would take 229 KB.
func TestPipelineAllocsScaleWithRanks(t *testing.T) {
	tr := pipelineTrace(t)
	graphs := len(tr.Graphs)
	if nodes := tr.NodeCount(); graphs != 64 || nodes != 11328 {
		t.Fatalf("trace has %d graphs and %d nodes, want 64 and 11328", graphs, nodes)
	}
	// Per microbatch, a compute, receive and send per pass. Each name may
	// cost fmt two allocations: its printer pool drops printers under the
	// race detector.
	const names, classes = 6 * 32, 3
	build := testing.AllocsPerRun(5, func() { pipelineTrace(t) })
	if limit := float64(2*names + 32); build > limit {
		t.Errorf("Pipeline: %.0f allocations for %d graphs; want at most %.0f", build, graphs, limit)
	}
	plans := testing.AllocsPerRun(5, func() {
		if _, err := tr.Plans(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(5*classes + 16); plans > limit {
		t.Errorf("Trace.Plans: %.0f allocations for %d graphs; want at most %.0f", plans, graphs, limit)
	}
	const runs, byteLimit = 5, 48 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := tr.Plans(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > byteLimit {
		t.Errorf("Trace.Plans: %d bytes for %d graphs; want at most %d", bytes, graphs, byteLimit)
	}
}

// A stage's list is too long for et when its exact node or dependency
// count exceeds et.MaxListLen, and the generators say so before they
// allocate anything proportional to it: for two billion microbatches the
// table of node names alone would take 192 GB.
func TestHugeMicroBatchCountIsAnError(t *testing.T) {
	top := wafer(4)
	pipeline := func(stages, mbs int) error {
		_, err := Pipeline(top, PipelineConfig{
			Name: "pp", Stages: stages, MicroBatches: mbs,
			FlopsPerStage: 1e12, ActivationBytes: units.MB, GradBytes: units.MB,
		})
		return err
	}
	threeD := func(stages, mbs int) error {
		_, err := ThreeD(top, ThreeDConfig{Model: tinyModel(1), Stages: stages, MicroBatches: mbs})
		return err
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"pipeline, every list", pipeline(2, 2000000000),
			"etgen: pp: 2000000000 microbatches need more than the 2147483647 nodes a list holds"},
		// 2 stages: the first stage's list fits its nodes but not its
		// dependencies.
		{"pipeline, dependencies", pipeline(2, 500000000),
			"etgen: pp: a stage's node list needs 2000000001 nodes and 2500000000 dependencies; a list holds at most 2147483647 of each"},
		// 4 stages: the edge stages' lists fit, the middle stages' do not.
		{"pipeline, middle stages", pipeline(4, 400000000),
			"etgen: pp: a stage's node list needs 2400000000 nodes and 3199999998 dependencies; a list holds at most 2147483647 of each"},
		{"3D, every list", threeD(2, 2000000000),
			"etgen: tiny: 2000000000 microbatches of 4 layers per stage need more than the 2147483647 nodes a list holds"},
		{"3D, exact count", threeD(2, 300000000),
			"etgen: tiny: a stage's node list needs 3000000004 nodes and 3000000003 dependencies; a list holds at most 2147483647 of each"},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, c.err, c.want)
		}
	}
}
