package core

import (
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

func testConfig(t *testing.T, top *topology.Topology) Config {
	t.Helper()
	return Config{
		Topology: top,
		Compute:  compute.Model{Peak: units.TFLOPS(100), MemBandwidth: units.GBps(2000)},
		Memory: memory.System{
			Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2000)},
		},
	}
}

func ring4Top() *topology.Topology {
	return topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100), Latency: 0,
	})
}

func run(t *testing.T, cfg Config, trace *et.Trace) *RunStats {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// symmetricTrace builds the same node list on every NPU.
func symmetricTrace(n int, build func(rank int) []et.Node) *et.Trace {
	tr := &et.Trace{Name: "test", NumNPUs: n}
	for r := 0; r < n; r++ {
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: build(r)})
	}
	return tr
}

func TestComputeOnlyTrace(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e11}, // 1 ms at 100 TFLOPS
			{ID: 2, Kind: et.KindCompute, FLOPs: 1e11, Deps: []int{1}},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	if stats.Makespan != 2*units.Millisecond {
		t.Errorf("makespan = %v, want 2ms", stats.Makespan)
	}
	for i, b := range stats.PerNPU {
		if b.Compute != 2*units.Millisecond || b.Idle != 0 {
			t.Errorf("npu %d breakdown = %+v", i, b)
		}
	}
}

func TestParallelNodesOverlap(t *testing.T) {
	top := ring4Top()
	// Two independent 1 ms compute nodes run concurrently (async streams).
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e11},
			{ID: 2, Kind: et.KindCompute, FLOPs: 1e11},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	if stats.Makespan != units.Millisecond {
		t.Errorf("makespan = %v, want 1ms (parallel)", stats.Makespan)
	}
}

func TestMemoryNodeTiming(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindMemory, MemOp: et.MemLoad, MemLocation: et.MemLocal, TensorBytes: int64(2 * units.GB)},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	want := units.Microsecond + units.Millisecond // latency + 2GB/2000GBps
	if stats.Makespan != want {
		t.Errorf("makespan = %v, want %v", stats.Makespan, want)
	}
	if stats.PerNPU[0].ExposedLocalMem != want {
		t.Errorf("exposed local mem = %v, want %v", stats.PerNPU[0].ExposedLocalMem, want)
	}
}

func TestCollectiveRendezvous(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB)},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	// All-Reduce 8MB on Ring(4)@100GB/s: traffic 2*2*8*(3/4) = 24MB -> 240us.
	want := units.FromMicros(240)
	if stats.Makespan != want {
		t.Errorf("makespan = %v, want %v", stats.Makespan, want)
	}
	if len(stats.Collectives) != 1 {
		t.Fatalf("collective log has %d entries", len(stats.Collectives))
	}
	if stats.PerNPU[2].ExposedComm != want {
		t.Errorf("exposed comm = %v, want %v", stats.PerNPU[2].ExposedComm, want)
	}
}

func TestStaggeredRendezvousWaitsCountAsComm(t *testing.T) {
	top := ring4Top()
	// NPU 0 computes 1 ms before joining; others wait at the collective.
	trace := symmetricTrace(4, func(rank int) []et.Node {
		nodes := []et.Node{}
		if rank == 0 {
			nodes = append(nodes, et.Node{ID: 10, Kind: et.KindCompute, FLOPs: 1e11})
		}
		coll := et.Node{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB)}
		if rank == 0 {
			coll.Deps = []int{10}
		}
		nodes = append(nodes, coll)
		return nodes
	})
	stats := run(t, testConfig(t, top), trace)
	want := units.Millisecond + units.FromMicros(240)
	if stats.Makespan != want {
		t.Errorf("makespan = %v, want %v", stats.Makespan, want)
	}
	// NPU 1 spent the whole run "communicating" (waiting + transferring).
	if stats.PerNPU[1].ExposedComm != want {
		t.Errorf("npu1 exposed comm = %v, want %v", stats.PerNPU[1].ExposedComm, want)
	}
	// NPU 0 hid the wait behind its compute.
	if stats.PerNPU[0].Compute != units.Millisecond {
		t.Errorf("npu0 compute = %v", stats.PerNPU[0].Compute)
	}
}

func TestComputeHidesCommunication(t *testing.T) {
	top := ring4Top()
	// A collective overlapped with a longer compute: comm fully hidden.
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e12}, // 10 ms
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB)},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	if stats.Makespan != 10*units.Millisecond {
		t.Errorf("makespan = %v, want 10ms", stats.Makespan)
	}
	b := stats.PerNPU[0]
	if b.ExposedComm != 0 {
		t.Errorf("exposed comm = %v, want 0 (hidden)", b.ExposedComm)
	}
	if b.Compute != 10*units.Millisecond {
		t.Errorf("compute = %v", b.Compute)
	}
}

func TestSubgroupCollectives(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(50)},
	)
	// Each dim-0 group runs its own All-Reduce; the two instances are
	// disjoint and concurrent.
	trace := symmetricTrace(8, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB),
				Group: &et.GroupRef{Spans: []et.SpanRef{{Phys: 0, K: 4, Stride: 1}}}},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	want := units.FromMicros(240)
	if stats.Makespan != want {
		t.Errorf("makespan = %v, want %v (concurrent groups)", stats.Makespan, want)
	}
}

func TestPipelineParallelP2P(t *testing.T) {
	top := ring4Top()
	// A 4-stage pipeline: stage r computes then sends to r+1. Different
	// NPUs run different node lists — the capability the graph engine adds.
	tr := &et.Trace{Name: "pp", NumNPUs: 4}
	const msg = int64(1 * units.MB) // 10 us per hop at 100 GB/s
	for r := 0; r < 4; r++ {
		var nodes []et.Node
		id := 1
		if r > 0 {
			nodes = append(nodes, et.Node{ID: id, Kind: et.KindRecv, Peer: -1, Tag: r, CommBytes: msg})
			id++
		}
		comp := et.Node{ID: id, Kind: et.KindCompute, FLOPs: 1e11} // 1 ms
		if r > 0 {
			comp.Deps = []int{id - 1}
		}
		nodes = append(nodes, comp)
		id++
		if r < 3 {
			nodes = append(nodes, et.Node{ID: id, Kind: et.KindSend, Peer: 1, Tag: r + 1, CommBytes: msg, Deps: []int{id - 1}})
		}
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: nodes})
	}
	stats := run(t, testConfig(t, top), tr)
	// 4 compute stages of 1 ms plus 3 transfers of 10 us.
	want := 4*units.Millisecond + 30*units.Microsecond
	if stats.Makespan != want {
		t.Errorf("makespan = %v, want %v", stats.Makespan, want)
	}
	// Stage 3 idles while the pipeline fills (recv waits are idle time).
	if stats.PerNPU[3].Idle <= 0 {
		t.Errorf("stage 3 idle = %v, want fill-bubble idle", stats.PerNPU[3].Idle)
	}
	if stats.PerNPU[0].Idle == 0 {
		t.Error("stage 0 should idle after sending")
	}
}

func TestDeadlockDetection(t *testing.T) {
	top := ring4Top()
	// NPU 0 waits on a recv that nobody sends. Bypass trace validation by
	// constructing the simulator input directly: Run validates, so give a
	// matching send on NPU 1 that itself depends on an impossible
	// collective rendezvous (NPU 1 joins a collective nobody else joins).
	tr := symmetricTrace(4, func(rank int) []et.Node {
		if rank != 1 {
			return []et.Node{{ID: 1, Kind: et.KindCompute, FLOPs: 1}}
		}
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024},
		}
	})
	sim, err := NewSimulator(testConfig(t, top))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(tr)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error = %v, want deadlock report", err)
	}
}

func TestTraceTopologyMismatch(t *testing.T) {
	sim, err := NewSimulator(testConfig(t, ring4Top()))
	if err != nil {
		t.Fatal(err)
	}
	tr := symmetricTrace(2, func(int) []et.Node {
		return []et.Node{{ID: 1, Kind: et.KindCompute, FLOPs: 1}}
	})
	if _, err := sim.Run(tr); err == nil {
		t.Error("expected NPU-count mismatch error")
	}
}

func TestBreakdownSumsToMakespan(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(rank int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 5e10},
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(4 * units.MB), Deps: []int{1}},
			{ID: 3, Kind: et.KindMemory, MemOp: et.MemStore, MemLocation: et.MemLocal, TensorBytes: int64(64 * units.MB), Deps: []int{2}},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	for i, b := range stats.PerNPU {
		if b.Total() != stats.Makespan {
			t.Errorf("npu %d breakdown total %v != makespan %v (%+v)", i, b.Total(), stats.Makespan, b)
		}
	}
	m := stats.MeanBreakdown()
	if m.Total() != stats.Makespan {
		t.Errorf("mean breakdown total %v != makespan %v", m.Total(), stats.Makespan)
	}
}

func TestThemisPolicyWiredThrough(t *testing.T) {
	// The slow dimension comes first: the baseline's fixed ascending order
	// runs the largest Reduce-Scatter phase on it, which Themis avoids.
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(50)},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(400)},
	)
	mk := func(policy collective.Policy) units.Time {
		cfg := testConfig(t, top)
		cfg.Policy = policy
		trace := symmetricTrace(16, func(int) []et.Node {
			return []et.Node{
				{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(256 * units.MB)},
			}
		})
		return run(t, cfg, trace).Makespan
	}
	base, themis := mk(collective.Baseline), mk(collective.Themis)
	if themis >= base {
		t.Errorf("Themis (%v) should beat baseline (%v) on unbalanced dims", themis, base)
	}
}

func TestInSwitchCollective(t *testing.T) {
	top := ring4Top()
	cfg := testConfig(t, top)
	cfg.Memory.HasPool = true
	cfg.Memory.Pool = memory.PoolConfig{
		Design:             memory.Hierarchical,
		NumNodes:           2,
		GPUsPerNode:        2,
		NumOutSwitches:     2,
		NumRemoteGroups:    4,
		ChunkSize:          units.MiB,
		RemoteGroupBW:      units.GBps(100),
		GPUSideOutFabricBW: units.GBps(100),
		InNodeFabricBW:     units.GBps(256),
	}
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: int64(32 * units.MiB), InSwitch: true},
		}
	})
	stats := run(t, cfg, trace)
	// The pool's W is the per-GPU pre-gather shard: CommBytes / |group|.
	want := cfg.Memory.Pool.InSwitchCollectiveTime(32 * units.MiB / 4)
	if stats.Makespan != want {
		t.Errorf("in-switch makespan = %v, want %v", stats.Makespan, want)
	}
	if stats.PerNPU[0].ExposedComm != want {
		t.Errorf("in-switch time should be attributed to comm, got %+v", stats.PerNPU[0])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSimulator(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(t, ring4Top())
	cfg.Chunks = -1
	if _, err := NewSimulator(cfg); err == nil {
		t.Error("negative chunks accepted")
	}
}

func TestMultipleSequentialCollectives(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB)},
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB), Deps: []int{1}},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	if stats.Makespan != units.FromMicros(480) {
		t.Errorf("two sequential All-Reduces = %v, want 480us", stats.Makespan)
	}
	if len(stats.Collectives) != 2 {
		t.Errorf("logged %d collectives, want 2", len(stats.Collectives))
	}
}

func TestCollectiveLogLimit(t *testing.T) {
	top := ring4Top()
	cfg := testConfig(t, top)
	cfg.CollectiveLogLimit = 2
	trace := symmetricTrace(4, func(int) []et.Node {
		nodes := make([]et.Node, 5)
		for i := range nodes {
			nodes[i] = et.Node{ID: i + 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(units.MB)}
			if i > 0 {
				nodes[i].Deps = []int{i}
			}
		}
		return nodes
	})
	stats := run(t, cfg, trace)
	if len(stats.Collectives) != 2 {
		t.Errorf("logged %d collectives, want cap of 2", len(stats.Collectives))
	}
	if stats.CollectiveCount != 5 {
		t.Errorf("counted %d collectives, want all 5", stats.CollectiveCount)
	}
}

func TestRunStatsTrafficPerDim(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: int64(8 * units.MB)},
		}
	})
	stats := run(t, testConfig(t, top), trace)
	// All-Gather(8MB) on Ring(4): per-NPU sent+received = 2*2MB*3 = 12MB.
	if got := stats.TrafficPerDim[0]; got != 12*units.MB {
		t.Errorf("TrafficPerDim = %v, want 12MB", got)
	}
}

func TestTimelineRecording(t *testing.T) {
	top := ring4Top()
	cfg := testConfig(t, top)
	cfg.RecordTimeline = true
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e11},
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: int64(8 * units.MB), Deps: []int{1}},
		}
	})
	stats := run(t, cfg, trace)
	if len(stats.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	// Intervals must be well-formed, per-NPU non-overlapping, and their
	// per-category sums must equal the breakdown.
	perNPU := map[int]units.Time{}
	for _, iv := range stats.Timeline {
		if iv.End <= iv.Start {
			t.Fatalf("degenerate interval %+v", iv)
		}
		perNPU[iv.NPU] += iv.End - iv.Start
	}
	for npu, total := range perNPU {
		b := stats.PerNPU[npu]
		want := b.Compute + b.ExposedComm + b.ExposedRemoteMem + b.ExposedLocalMem
		if total != want {
			t.Errorf("npu %d timeline covers %v, breakdown non-idle is %v", npu, total, want)
		}
	}
}

func TestTimelineOffByDefault(t *testing.T) {
	top := ring4Top()
	trace := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{{ID: 1, Kind: et.KindCompute, FLOPs: 1e9}}
	})
	stats := run(t, testConfig(t, top), trace)
	if stats.Timeline != nil {
		t.Error("timeline recorded without RecordTimeline")
	}
}

// A trace whose node list is NOT in ascending-ID order must simulate
// identically to its sorted twin, over one iteration or several: each
// iteration's ready roots are issued in ascending-ID order either way.
func TestShuffledNodeListMatchesSorted(t *testing.T) {
	top := ring4Top()
	// Two independent roots plus a dependent P2P pair so issue order is
	// observable through link reservation and rendezvous timing.
	build := func(shuffled bool) *et.Trace {
		return symmetricTrace(4, func(rank int) []et.Node {
			peer := (rank + 1) % 4
			prev := (rank + 3) % 4
			nodes := []et.Node{
				{ID: 1, Kind: et.KindCompute, FLOPs: 2e11},
				{ID: 2, Kind: et.KindCompute, FLOPs: 1e11},
				{ID: 3, Kind: et.KindSend, Peer: peer - rank, Tag: rank, CommBytes: 1 << 20, Deps: []int{1}},
				{ID: 4, Kind: et.KindRecv, Peer: prev - rank, Tag: prev, CommBytes: 1 << 20, Deps: []int{2}},
			}
			if shuffled {
				nodes[0], nodes[2] = nodes[2], nodes[0] // 3,2,1,4: not ascending
			}
			return nodes
		})
	}
	for _, iters := range []int{1, 3} {
		sortedTrace, shuffledTrace := build(false), build(true)
		sortedTrace.Iterations, shuffledTrace.Iterations = iters, iters
		sorted := run(t, testConfig(t, top), sortedTrace)
		shuffled := run(t, testConfig(t, top), shuffledTrace)
		if sorted.Makespan != shuffled.Makespan {
			t.Errorf("%d iterations: shuffled node list changed makespan: %v vs %v", iters, shuffled.Makespan, sorted.Makespan)
		}
		if sorted.Events != shuffled.Events {
			t.Errorf("%d iterations: shuffled node list changed event count: %d vs %d", iters, shuffled.Events, sorted.Events)
		}
		for i := range sorted.PerNPU {
			if sorted.PerNPU[i] != shuffled.PerNPU[i] {
				t.Errorf("%d iterations: npu %d breakdown differs: %+v vs %+v", iters, i, shuffled.PerNPU[i], sorted.PerNPU[i])
			}
		}
	}
}

// Simulated time is int64 picoseconds, about 106 days. A trace whose
// compute runs past that is an error from Run: never a panic from the
// clock wrapping negative, and never a 0 s makespan from an out-of-range
// duration conversion.
func TestSimulatedTimeOverflowIsAnError(t *testing.T) {
	top := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)})
	cfg := Config{
		Topology: top,
		Compute:  compute.A100(),
		Memory: memory.System{
			Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)},
		},
	}
	for _, flops := range []float64{1e21, 3e21, 1e24} {
		trace := symmetricTrace(2, func(int) []et.Node {
			return []et.Node{
				{ID: 1, Kind: et.KindCompute, FLOPs: flops},
				{ID: 2, Kind: et.KindCompute, FLOPs: flops, Deps: []int{1}},
				{ID: 3, Kind: et.KindCompute, FLOPs: flops, Deps: []int{2}},
			}
		})
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(trace)
		if err == nil {
			t.Errorf("3 chained %g-FLOP nodes: makespan %v, want a time-overflow error", flops, stats.Makespan)
		} else if !strings.Contains(err.Error(), "overflow") {
			t.Errorf("3 chained %g-FLOP nodes: error %q, want a time-overflow error", flops, err)
		}
	}
}
