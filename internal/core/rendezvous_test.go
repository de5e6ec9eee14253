package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

// render prints what a run did: makespan, each NPU's breakdown and the
// collective log, times in microseconds (exact for these magnitudes).
func render(st *RunStats) string {
	us := func(t units.Time) string { return fmt.Sprintf("%g", t.Micros()) }
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %s\n", us(st.Makespan))
	for i, d := range st.PerNPU {
		fmt.Fprintf(&b, "npu %d: compute %s comm %s remote %s local %s idle %s\n", i,
			us(d.Compute), us(d.ExposedComm), us(d.ExposedRemoteMem), us(d.ExposedLocalMem), us(d.Idle))
	}
	for _, c := range st.Collectives {
		fmt.Fprintf(&b, "%v %d [%s, %s]\n", c.Op, c.Size, us(c.Start), us(c.End))
	}
	return b.String()
}

// perRank builds a trace whose ranks may hold distinct node lists; ranks
// for which build returns the same slice share one list.
func perRank(n int, build func(rank int) []et.Node) *et.Trace {
	tr := &et.Trace{Name: "test", NumNPUs: n}
	for r := 0; r < n; r++ {
		tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: build(r)})
	}
	return tr
}

func checkRun(t *testing.T, cfg Config, tr *et.Trace, want string) {
	t.Helper()
	if got := render(run(t, cfg, tr)); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

const mb8, mb4 = int64(8 * units.MB), int64(4 * units.MB)

// Issue order follows node IDs, not declaration order: the 0.5 ms branch's
// 4 MB All-Reduce is every rank's first collective on the machine-wide
// communicator and the 1 ms branch's 8 MB one its second, whether the ranks
// share one shuffled list or each declare the nodes in a different order.
func TestRendezvousNonAscendingList(t *testing.T) {
	nodes := func() []et.Node {
		return []et.Node{
			{ID: 4, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb4, Deps: []int{3}},
			{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Deps: []int{1}},
			{ID: 3, Kind: et.KindCompute, FLOPs: 5e10},
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e11},
		}
	}
	const want = `makespan 1240
npu 0: compute 1000 comm 240 remote 0 local 0 idle 0
npu 1: compute 1000 comm 240 remote 0 local 0 idle 0
npu 2: compute 1000 comm 240 remote 0 local 0 idle 0
npu 3: compute 1000 comm 240 remote 0 local 0 idle 0
All-Reduce 4000000 [500, 620]
All-Reduce 8000000 [1000, 1240]
`
	list := nodes()
	checkRun(t, testConfig(t, ring4Top()), perRank(4, func(int) []et.Node { return list }), want)
	rotated := perRank(4, func(r int) []et.Node {
		l := nodes()
		return append(l[r:], l[:r]...)
	})
	checkRun(t, testConfig(t, ring4Top()), rotated, want)
}

// Node IDs may be sparse, huge or negative; the two roots still issue in
// ascending-ID order.
func TestRendezvousSparseIDs(t *testing.T) {
	const big = 1 << 40
	list := []et.Node{
		{ID: big, Kind: et.KindCompute, FLOPs: 1e11},
		{ID: 7, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Deps: []int{big}},
		{ID: 1000, Kind: et.KindCompute, FLOPs: 5e10, Deps: []int{7}},
		{ID: -3, Kind: et.KindMemory, MemOp: et.MemLoad, MemLocation: et.MemLocal, TensorBytes: int64(2 * units.GB), Deps: []int{1000}},
		{ID: -10, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb4},
	}
	// The 4 MB All-Reduce (ID -10) is the first collective and overlaps
	// the 1 ms compute; then 8 MB (240 us), 0.5 ms compute and a 1001 us
	// local load.
	const want = `makespan 2741
npu 0: compute 1500 comm 240 remote 0 local 1001 idle 0
npu 1: compute 1500 comm 240 remote 0 local 1001 idle 0
npu 2: compute 1500 comm 240 remote 0 local 1001 idle 0
npu 3: compute 1500 comm 240 remote 0 local 1001 idle 0
All-Reduce 4000000 [0, 120]
All-Reduce 8000000 [1000, 1240]
`
	checkRun(t, testConfig(t, ring4Top()), perRank(4, func(int) []et.Node { return list }), want)
}

// A repeated dependency counts once per listing: the node runs after its
// last parent completes, not before.
func TestRendezvousDuplicateDeps(t *testing.T) {
	list := []et.Node{
		{ID: 1, Kind: et.KindCompute, FLOPs: 1e11},
		{ID: 2, Kind: et.KindCompute, FLOPs: 5e10},
		{ID: 3, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Deps: []int{1, 1, 2, 1}},
		{ID: 4, Kind: et.KindCompute, FLOPs: 1e10, Deps: []int{3, 3}},
	}
	const want = `makespan 1340
npu 0: compute 1100 comm 240 remote 0 local 0 idle 0
npu 1: compute 1100 comm 240 remote 0 local 0 idle 0
npu 2: compute 1100 comm 240 remote 0 local 0 idle 0
npu 3: compute 1100 comm 240 remote 0 local 0 idle 0
All-Reduce 8000000 [1000, 1240]
`
	checkRun(t, testConfig(t, ring4Top()), perRank(4, func(int) []et.Node { return list }), want)
}

// Two collectives over identical spans — one naming no group, one naming
// the whole ring explicitly — are the same communicator and pair by issue
// sequence. Ranks 1-3 reach both at t=0 while rank 0 computes, so both
// logical collectives wait open at once, launch together at 1 ms and share
// the ring: 12 MB of All-Reduce at the 8 MB rate ends at 1360 us.
func TestRendezvousSequencePairing(t *testing.T) {
	ring := &et.GroupRef{Spans: []et.SpanRef{{Phys: 0, K: 4, Stride: 1}}}
	waiting := []et.Node{
		{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8},
		{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb4, Group: ring},
	}
	late := []et.Node{
		{ID: 10, Kind: et.KindCompute, FLOPs: 1e11},
		{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Deps: []int{10}},
		{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb4, Group: ring, Deps: []int{10}},
	}
	tr := perRank(4, func(r int) []et.Node {
		if r == 0 {
			return late
		}
		return waiting
	})
	const want = `makespan 1360
npu 0: compute 1000 comm 360 remote 0 local 0 idle 0
npu 1: compute 0 comm 1360 remote 0 local 0 idle 0
npu 2: compute 0 comm 1360 remote 0 local 0 idle 0
npu 3: compute 0 comm 1360 remote 0 local 0 idle 0
All-Reduce 8000000 [1000, 1300]
All-Reduce 4000000 [1000, 1360]
`
	checkRun(t, testConfig(t, ring4Top()), tr, want)
}

// Ranks may write one communicator in two forms: rank 0 names no group
// and ranks 1-3 name the whole ring. Layouts are keyed by their resolved
// spans, so the four ranks still rendezvous, exactly as when none names a
// group.
func TestRendezvousGroupForms(t *testing.T) {
	ring := &et.GroupRef{Spans: []et.SpanRef{{Phys: 0, K: 4, Stride: 1}}}
	implicit := []et.Node{{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8}}
	explicit := []et.Node{{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8, Group: ring}}
	const want = `makespan 240
npu 0: compute 0 comm 240 remote 0 local 0 idle 0
npu 1: compute 0 comm 240 remote 0 local 0 idle 0
npu 2: compute 0 comm 240 remote 0 local 0 idle 0
npu 3: compute 0 comm 240 remote 0 local 0 idle 0
All-Reduce 8000000 [0, 240]
`
	checkRun(t, testConfig(t, ring4Top()), perRank(4, func(int) []et.Node { return implicit }), want)
	mixed := perRank(4, func(r int) []et.Node {
		if r == 0 {
			return implicit
		}
		return explicit
	})
	checkRun(t, testConfig(t, ring4Top()), mixed, want)
}

// An in-switch collective never pairs with a fabric collective over the
// same spans. Rank 0 issues its in-switch node at t=0 and its fabric node
// after 1 ms of compute, the others both at t=0: paired by sequence alone,
// a fabric All-Gather would launch at t=0 and the in-switch one never.
func TestRendezvousInSwitchSeparate(t *testing.T) {
	cfg := testConfig(t, ring4Top())
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
	fabric := func(id int, deps ...int) et.Node {
		return et.Node{ID: id, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: mb8, Deps: deps}
	}
	inSwitch := func(id int) et.Node {
		return et.Node{ID: id, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: int64(32 * units.MiB), InSwitch: true}
	}
	first := []et.Node{inSwitch(1), {ID: 5, Kind: et.KindCompute, FLOPs: 1e11}, fabric(2, 5)}
	rest := []et.Node{fabric(1), inSwitch(2)}
	tr := perRank(4, func(r int) []et.Node {
		if r == 0 {
			return first
		}
		return rest
	})
	// The in-switch All-Gather runs from t=0 under rank 0's compute; the
	// 8 MB fabric one takes 120 us once rank 0 joins at 1 ms.
	want := fmt.Sprintf(`makespan 1120
npu 0: compute 1000 comm 120 remote 0 local 0 idle 0
npu 1: compute 0 comm 1120 remote 0 local 0 idle 0
npu 2: compute 0 comm 1120 remote 0 local 0 idle 0
npu 3: compute 0 comm 1120 remote 0 local 0 idle 0
All-Gather 33554432 [0, %g]
All-Gather 8000000 [1000, 1120]
`, cfg.Memory.Pool.InSwitchCollectiveTime(32*units.MiB/4).Micros())
	checkRun(t, cfg, tr, want)
}

// The deadlock report names the same stuck node on every run: the first
// in-flight node of the lowest stuck rank, in list order.
func TestDescribeStuckIsDeterministic(t *testing.T) {
	stuck := []et.Node{
		{ID: 1, Name: "ar1", Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024},
		{ID: 2, Name: "ar2", Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024},
		{ID: 3, Name: "ar3", Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024},
		{ID: 4, Name: "ar4", Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024},
		{ID: 5, Name: "tail", Kind: et.KindCompute, FLOPs: 1, Deps: []int{4}},
	}
	idle := []et.Node{{ID: 1, Kind: et.KindCompute, FLOPs: 1}}
	tr := perRank(4, func(r int) []et.Node {
		if r == 0 {
			return idle
		}
		return stuck
	})
	const want = "first stuck: npu 1 node 1 (COMM_COLL ar1, in flight)"
	for i := 0; i < 20; i++ {
		sim, err := NewSimulator(testConfig(t, ring4Top()))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(tr)
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("run %d: error %v, want suffix %q", i, err, want)
		}
	}
}

// A communicator span that does not fit the machine is an error from Run,
// not a panic — including a span valid from some ranks but not others.
func TestInvalidSpanReturnsError(t *testing.T) {
	ring5 := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 5, Bandwidth: units.GBps(100)})
	cases := []struct {
		name string
		top  *topology.Topology
		span et.SpanRef
		want string
	}{
		{"dim out of range", ring4Top(), et.SpanRef{Phys: 3, K: 2, Stride: 1}, "npu 0 node 1"},
		{"too many members", ring4Top(), et.SpanRef{Phys: 0, K: 8, Stride: 1}, "npu 0 node 1"},
		{"one member", ring4Top(), et.SpanRef{Phys: 0, K: 1, Stride: 1}, "npu 0 node 1"},
		{"zero stride", ring4Top(), et.SpanRef{Phys: 0, K: 2, Stride: 0}, "npu 0 node 1"},
		// (K-1)*Stride wraps to -4 in int64 arithmetic.
		{"reach overflows", ring4Top(), et.SpanRef{Phys: 0, K: 1 << 62, Stride: 4}, "npu 0 node 1"},
		// From rank 0 the pair {0, 4} fits; from rank 1, {1, 5} wraps.
		{"reach from rank 1", ring5, et.SpanRef{Phys: 0, K: 2, Stride: 4}, "npu 1 node 1"},
	}
	for _, c := range cases {
		n := c.top.NumNPUs()
		list := []et.Node{{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: mb8,
			Group: &et.GroupRef{Spans: []et.SpanRef{c.span}}}}
		sim, err := NewSimulator(testConfig(t, c.top))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(perRank(n, func(int) []et.Node { return list }))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// A collective the engine cannot launch — an All-Gather whose per-member
// shard rounds to zero bytes — is an error from Run, not a panic.
func TestCollectiveLaunchErrorReturned(t *testing.T) {
	list := []et.Node{{ID: 1, Name: "tiny", Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: 2}}
	sim, err := NewSimulator(testConfig(t, ring4Top()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(perRank(4, func(int) []et.Node { return list }))
	if err == nil || !strings.Contains(err.Error(), "tiny") {
		t.Errorf("error %v, want one naming the collective node", err)
	}
}

// Issuing a node allocates nothing per NPU, and a collective allocates
// nothing per rendezvous or per chunk: rendezvous records and collective
// runs are recycled, so what a launched collective still allocates is its
// result's traffic slice. The mallocs of a whole run are therefore the
// set-up (plans, instances, link sets, run stats) spread over the collective
// instances launched, and never scale with the per-NPU node issues, which
// outnumber the instances thirtyfold here.
func TestRunAllocsScaleWithCollectiveInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 512-NPU GPT-3 iteration")
	}
	// Base-512: the Conv-4D shape with a 1000 GB/s on-chip first dimension.
	top, err := topology.ParseWithBandwidth("R(2)_FC(8)_R(8)_SW(4)", []float64{1000, 200, 100, 50}, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	model := etgen.GPT3()
	model.Layers = 2
	trace, err := etgen.Transformer(top, model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topology:           top,
		Compute:            compute.A100(),
		Memory:             memory.System{Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)}},
		Chunks:             32,
		CollectiveLogLimit: 1 << 20,
	}
	var instances int
	allocs := testing.AllocsPerRun(2, func() {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		instances = len(stats.Collectives)
	})
	issues := trace.NodeCount()
	// The engine before integer rendezvous made ~420 allocations per
	// instance, and ~43 before rendezvous records and runs were recycled.
	const perInstance = 12
	if allocs > float64(perInstance*instances) {
		t.Errorf("%v allocations for %d collective instances (%d node issues); want at most %d per instance",
			allocs, instances, issues, perInstance)
	}
}

// Issuing a send or a receive allocates nothing: both complete through the
// simulator's pooled node events, and the network routes, charges transit
// paths and matches messages without allocating. A pipeline's later
// iterations re-issue every point-to-point node, so four iterations may
// allocate only a handful of objects more than one.
func TestP2PReissueAllocatesNothing(t *testing.T) {
	top, err := topology.ParseWithBandwidth("FC(4)_SW(2)_R(4)", []float64{250, 200, 50}, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := etgen.Pipeline(top, etgen.PipelineConfig{
		Name: "pipeline", Stages: 4, MicroBatches: 8, FlopsPerStage: 1e12,
		ActivationBytes: 16 * units.MiB, // no GradBytes: no All-Reduce
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, top)
	cfg.ModelTransitCongestion = true
	allocs := func(iters int) float64 {
		tr := *trace
		tr.Iterations = iters
		return testing.AllocsPerRun(3, func() { run(t, cfg, &tr) })
	}
	one, four := allocs(1), allocs(4)
	if four-one > 4 {
		t.Errorf("a 32-NPU pipeline allocates %v objects for one iteration and %v for four; want at most 4 more", one, four)
	}
}
