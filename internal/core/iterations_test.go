package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

// unroll is the reference for native iterations: it copies each node list
// n times, offsetting IDs by the list's ID span per iteration, makes each
// copy's roots depend on the previous copy's exits (the nodes nothing
// depends on) and gives each iteration its own P2P tags.
func unroll(tr *et.Trace, n int) *et.Trace {
	tagStride := 1
	for _, g := range tr.Graphs {
		for _, nd := range g.Nodes {
			tagStride = max(tagStride, nd.Tag+1)
		}
	}
	out := &et.Trace{Name: tr.Name, NumNPUs: tr.NumNPUs}
	for _, g := range tr.Graphs {
		var nodes []et.Node
		if len(g.Nodes) > 0 {
			lo, hi := g.Nodes[0].ID, g.Nodes[0].ID
			hasDependent := make(map[int]bool)
			for _, nd := range g.Nodes {
				lo, hi = min(lo, nd.ID), max(hi, nd.ID)
				for _, d := range nd.Deps {
					hasDependent[d] = true
				}
			}
			var exits []int
			for _, nd := range g.Nodes {
				if !hasDependent[nd.ID] {
					exits = append(exits, nd.ID)
				}
			}
			span := hi - lo + 1
			for k := 0; k < n; k++ {
				for _, nd := range g.Nodes {
					c := nd
					c.ID += k * span
					c.Deps = nil
					for _, d := range nd.Deps {
						c.Deps = append(c.Deps, d+k*span)
					}
					if k > 0 && len(nd.Deps) == 0 {
						for _, e := range exits {
							c.Deps = append(c.Deps, e+(k-1)*span)
						}
					}
					if c.Kind == et.KindSend || c.Kind == et.KindRecv {
						c.Tag += k * tagStride
					}
					nodes = append(nodes, c)
				}
			}
		}
		out.Graphs = append(out.Graphs, &et.Graph{NPU: g.NPU, Nodes: nodes})
	}
	return out
}

// checkMatchesUnrolled runs tr natively for n iterations and unrolled n
// times, both with every rank simulated, and requires identical run
// statistics, events included. The unrolled trace's lists are per rank, so
// it never folds; the native run must also match it folded, but for the
// events fired and the ranks simulated.
func checkMatchesUnrolled(t *testing.T, name string, cfg Config, tr *et.Trace, n int) *RunStats {
	t.Helper()
	want := runMode(t, cfg, unroll(tr, n), true)
	tr.Iterations = n
	got := runMode(t, cfg, tr, true)
	folded := run(t, cfg, tr)
	tr.Iterations = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s x%d: native iterations differ from the unrolled trace: makespan %v vs %v, events %d vs %d",
			name, n, got.Makespan, want.Makespan, got.Events, want.Events)
	}
	if !reflect.DeepEqual(withoutEvents(folded), withoutEvents(want)) {
		t.Errorf("%s x%d: folded native iterations differ from the unrolled trace: makespan %v vs %v",
			name, n, folded.Makespan, want.Makespan)
	}
	return got
}

// TestIterationsMatchUnrolledTrace: re-running each NPU's plan gives the
// same run, event for event, as the trace unrolled into one long graph per
// NPU, on collectives over MP and DP subgroups, All-to-All, P2P with
// transit charging and in-switch collectives through a memory pool.
func TestIterationsMatchUnrolledTrace(t *testing.T) {
	machine := func(spec string, gbps ...float64) *topology.Topology {
		top, err := topology.ParseWithBandwidth(spec, gbps, 500*units.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	config := func(top *topology.Topology) Config {
		return Config{
			Topology: top,
			Compute:  compute.A100(),
			Memory: memory.System{
				Local: memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)},
			},
		}
	}
	conv := machine("R(2)_FC(4)_SW(2)", 250, 200, 50)
	ring := machine("R(8)", 300)
	switches := machine("SW(8)_SW(2)", 460, 100)
	transit := config(ring)
	transit.ModelTransitCongestion = true
	pooled := config(switches)
	pooled.Memory.HasPool = true
	pooled.Memory.Pool = memory.PoolConfig{
		Design: memory.Hierarchical, NumNodes: 2, GPUsPerNode: 8, NumOutSwitches: 2, NumRemoteGroups: 4,
		RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100), InNodeFabricBW: units.GBps(256),
	}
	cases := []struct {
		name string
		cfg  Config
		gen  func() (*et.Trace, error)
	}{
		{"transformer MP4 x DP4", config(conv), func() (*et.Trace, error) {
			return etgen.Transformer(conv, etgen.TransformerConfig{
				Name: "t", Params: 4e9, Layers: 4, Hidden: 2048, SeqLen: 512, MicroBatch: 1, BytesPerElem: 2, MP: 4,
			})
		}},
		{"DLRM", config(ring), func() (*et.Trace, error) { return etgen.DLRMTrace(ring, etgen.DLRM()) }},
		{"pipeline with transit charging", transit, func() (*et.Trace, error) {
			return etgen.Pipeline(ring, etgen.PipelineConfig{
				Name: "pp", Stages: 4, MicroBatches: 3, FlopsPerStage: 1e12,
				ActivationBytes: 8 * units.MiB, GradBytes: 64 * units.MiB,
			})
		}},
		{"in-switch MoE-1T with a pool", pooled, func() (*et.Trace, error) { return etgen.MoETrace(switches, etgen.MoE1T(true)) }},
	}
	for _, c := range cases {
		tr, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		one := run(t, c.cfg, tr)
		for _, n := range []int{2, 3} {
			if got := checkMatchesUnrolled(t, c.name, c.cfg, tr, n); got.Makespan <= one.Makespan {
				t.Errorf("%s x%d: makespan %v, not above one iteration's %v", c.name, n, got.Makespan, one.Makespan)
			}
		}
	}
}

// racingSends is a ring trace whose roots are two sends sharing one link
// and their two receives: the send issued first crosses the link first, so
// the run depends on the order an iteration's roots are issued in.
func racingSends(reversed bool) *et.Trace {
	return symmetricTrace(4, func(rank int) []et.Node {
		next, prev := (rank+1)%4, (rank+3)%4
		nodes := []et.Node{
			{ID: 1, Kind: et.KindSend, Peer: next - rank, Tag: 1, CommBytes: 4 << 20},
			{ID: 2, Kind: et.KindSend, Peer: next - rank, Tag: 2, CommBytes: 1 << 20},
			{ID: 3, Kind: et.KindRecv, Peer: prev - rank, Tag: 1, CommBytes: 4 << 20},
			{ID: 4, Kind: et.KindRecv, Peer: prev - rank, Tag: 2, CommBytes: 1 << 20},
			{ID: 5, Kind: et.KindCompute, FLOPs: 1e9, Deps: []int{4}},
			{ID: 6, Kind: et.KindCompute, FLOPs: 1e10, Deps: []int{3}},
		}
		if reversed {
			slices.Reverse(nodes)
		}
		return nodes
	})
}

// TestIterationsIssueRootsInIDOrder: every iteration issues its roots in
// ascending-ID order, as the unrolled trace does, whatever order the list
// declares them in.
func TestIterationsIssueRootsInIDOrder(t *testing.T) {
	cfg := testConfig(t, ring4Top())
	want := checkMatchesUnrolled(t, "racing sends", cfg, racingSends(false), 3)
	reversed := racingSends(true)
	reversed.Iterations = 3
	if got := runMode(t, cfg, reversed, true); !reflect.DeepEqual(got, want) {
		t.Errorf("reversed list: makespan %v, events %d; want %v, %d", got.Makespan, got.Events, want.Makespan, want.Events)
	}
}

// TestIterationsPairQueuedMessagesInOrder: a sender with nothing else to
// do runs its iterations ahead of the receiver, so three iterations'
// messages queue on one (src, dst, tag) channel. FIFO matching pairs them
// in iteration order, exactly as per-iteration tags do.
func TestIterationsPairQueuedMessagesInOrder(t *testing.T) {
	const msg = int64(units.MB) // 10 us at 100 GB/s
	tr := &et.Trace{Name: "ahead", NumNPUs: 4, Graphs: []*et.Graph{
		{NPU: 0, Nodes: []et.Node{{ID: 1, Kind: et.KindSend, Peer: 1, Tag: 3, CommBytes: msg}}},
		{NPU: 1, Nodes: []et.Node{
			{ID: 1, Kind: et.KindRecv, Peer: -1, Tag: 3, CommBytes: msg},
			{ID: 2, Kind: et.KindCompute, FLOPs: 1e11, Deps: []int{1}}, // 1 ms
		}},
		{NPU: 2}, {NPU: 3},
	}}
	stats := checkMatchesUnrolled(t, "sender ahead", testConfig(t, ring4Top()), tr, 3)
	// The second and third messages wait for their receives, so the
	// receiver's computes run back to back after the first transfer.
	if want := 10*units.Microsecond + 3*units.Millisecond; stats.Makespan != want {
		t.Errorf("makespan = %v, want %v", stats.Makespan, want)
	}
}

// TestIterationBoundaryWaitsForEveryExit: an NPU starts its next iteration
// only when every node of the current one has completed, so a short root
// waits for its long sibling.
func TestIterationBoundaryWaitsForEveryExit(t *testing.T) {
	tr := symmetricTrace(4, func(int) []et.Node {
		return []et.Node{
			{ID: 1, Kind: et.KindCompute, FLOPs: 1e11}, // 1 ms
			// 1 us + 3 ms
			{ID: 2, Kind: et.KindMemory, MemOp: et.MemLoad, MemLocation: et.MemLocal, TensorBytes: int64(6 * units.GB)},
		}
	})
	tr.Iterations = 2
	cfg := testConfig(t, ring4Top())
	cfg.RecordTimeline = true
	stats := run(t, cfg, tr)
	iter := 3*units.Millisecond + units.Microsecond
	if stats.Makespan != 2*iter {
		t.Errorf("makespan = %v, want %v", stats.Makespan, 2*iter)
	}
	var compute []Interval
	for _, iv := range stats.Timeline {
		if iv.NPU == 0 && iv.Activity == ActCompute {
			compute = append(compute, iv)
		}
	}
	want := []Interval{
		{NPU: 0, Activity: ActCompute, Start: 0, End: units.Millisecond},
		{NPU: 0, Activity: ActCompute, Start: iter, End: iter + units.Millisecond},
	}
	if !reflect.DeepEqual(compute, want) {
		t.Errorf("npu 0 compute intervals = %v, want %v", compute, want)
	}
}

// TestBadIterationCountIsAnError: a node count times iterations beyond
// int, or a negative count, is an error from Start, never a wrapped count.
func TestBadIterationCountIsAnError(t *testing.T) {
	for _, c := range []struct {
		iters int
		want  string
	}{
		{math.MaxInt/8 + 1, "core: 8 nodes x 1152921504606846976 iterations overflows the node count"},
		{math.MinInt, "core: trace has a negative iteration count -9223372036854775808"},
		{-1, "core: trace has a negative iteration count -1"},
	} {
		tr := symmetricTrace(4, func(int) []et.Node {
			return []et.Node{
				{ID: 1, Kind: et.KindCompute, FLOPs: 1},
				{ID: 2, Kind: et.KindCompute, FLOPs: 1, Deps: []int{1}},
			}
		})
		tr.Iterations = c.iters
		sim, err := NewSimulator(testConfig(t, ring4Top()))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(tr, 0); err == nil || err.Error() != c.want {
			t.Errorf("%d iterations: Start error %v, want %q", c.iters, err, c.want)
		}
	}
	// The largest count that fits is accepted.
	tr := symmetricTrace(4, func(int) []et.Node { return []et.Node{{ID: 1, Kind: et.KindCompute, FLOPs: 1}} })
	tr.Iterations = math.MaxInt / 4
	sim, err := NewSimulator(testConfig(t, ring4Top()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(tr, 0); err != nil {
		t.Errorf("%d iterations of 4 nodes: %v", tr.Iterations, err)
	}
}

// TestIterationsDeadlockNamesBaseIDs: NPU 1 issues three collectives per
// iteration against NPU 0's two, so the second iteration leaves two of its
// collectives without a partner. The report names the stuck node by its
// ID in the trace.
func TestIterationsDeadlockNamesBaseIDs(t *testing.T) {
	coll := func(id int, name string, deps ...int) et.Node {
		return et.Node{ID: id, Name: name, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 1024, Deps: deps}
	}
	tr := &et.Trace{Name: "uneven", NumNPUs: 2, Iterations: 2, Graphs: []*et.Graph{
		{NPU: 0, Nodes: []et.Node{coll(10, "a"), coll(11, "b", 10)}},
		{NPU: 1, Nodes: []et.Node{coll(10, "a"), coll(11, "b", 10), coll(12, "c", 11)}},
	}}
	top := topology.MustNew(topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)})
	sim, err := NewSimulator(testConfig(t, top))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(tr)
	const want = "core: simulation deadlocked with 2 nodes pending (unmatched P2P or incomplete collective rendezvous); first stuck: npu 1 node 11 (COMM_COLL b, in flight)"
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
}

// TestLoadsAndStoresSymmetric: memory nodes are priced by location and
// size only, so a remote load and a remote store take the same time, and
// a remote access through the pool costs more than a local one here.
func TestLoadsAndStoresSymmetric(t *testing.T) {
	top := topology.MustNew(topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(100)})
	cfg := testConfig(t, top)
	cfg.Memory.HasPool = true
	cfg.Memory.Pool = memory.PoolConfig{
		Design: memory.Hierarchical, NumNodes: 1, GPUsPerNode: 4, NumOutSwitches: 1, NumRemoteGroups: 1,
		RemoteGroupBW: units.GBps(100), GPUSideOutFabricBW: units.GBps(100), InNodeFabricBW: units.GBps(256),
	}
	access := func(op et.MemOp, loc et.MemLocation) units.Time {
		return run(t, cfg, symmetricTrace(4, func(int) []et.Node {
			return []et.Node{{ID: 1, Kind: et.KindMemory, MemOp: op, MemLocation: loc, TensorBytes: int64(32 * units.MiB)}}
		})).Makespan
	}
	load, store := access(et.MemLoad, et.MemRemote), access(et.MemStore, et.MemRemote)
	if load != store {
		t.Errorf("remote load %v != remote store %v", load, store)
	}
	if local := access(et.MemLoad, et.MemLocal); load <= local {
		t.Errorf("remote access %v should cost more than local %v", load, local)
	}
}
