package collective

import (
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

func newRig(t *testing.T, top *topology.Topology, opts ...Option) (*timeline.Engine, *network.Backend, *Engine) {
	t.Helper()
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	return eng, net, NewEngine(net, opts...)
}

func runCollective(t *testing.T, eng *timeline.Engine, ce *Engine, op Op, size units.ByteSize, g Group) Result {
	t.Helper()
	var res Result
	got := false
	if err := ce.Start(op, size, g, nil, func(r Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("collective never completed")
	}
	return res
}

func ringDim(k int, gbps float64, lat units.Time) topology.Dim {
	return topology.Dim{Kind: topology.Ring, Size: k, Bandwidth: units.GBps(gbps), Latency: lat}
}

func TestOpAndPolicyStrings(t *testing.T) {
	if AllReduce.String() != "All-Reduce" || AllToAll.String() != "All-to-All" {
		t.Error("op names wrong")
	}
	if Baseline.String() != "Baseline" || Themis.String() != "Themis" {
		t.Error("policy names wrong")
	}
}

func TestGroupMembers(t *testing.T) {
	top := topology.MustNew(ringDim(4, 100, 0), ringDim(2, 100, 0))
	g, err := NewGroup(top, []int{0}, 5) // rank 5 = coords (1,1); dim-0 group
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Members = %v, want %v", m, want)
		}
	}
	full := FullMachine(top)
	if full.Size() != 8 || len(full.Members(top)) != 8 {
		t.Error("FullMachine group wrong")
	}
}

func TestNewGroupValidation(t *testing.T) {
	top := topology.MustNew(ringDim(4, 100, 0))
	if _, err := NewGroup(top, nil, 0); err == nil {
		t.Error("expected error for empty dims")
	}
	if _, err := NewGroup(top, []int{1}, 0); err == nil {
		t.Error("expected error for out-of-range dim")
	}
	if _, err := NewGroup(top, []int{0, 0}, 0); err == nil {
		t.Error("expected error for duplicate dim")
	}
	if _, err := NewGroup(top, []int{0}, 99); err == nil {
		t.Error("expected error for bad base")
	}
}

// TestRingAllGatherSingleChunk checks the chunk-phase model against hand
// arithmetic: All-Gather of 8 MB over Ring(4) @100 GB/s. Shard D = 2 MB,
// traffic = 2*D*(k-1) = 12 MB -> 120 us serialization + 3 steps * 1 us.
func TestRingAllGatherSingleChunk(t *testing.T) {
	top := topology.MustNew(ringDim(4, 100, units.Microsecond))
	eng, _, ce := newRig(t, top, WithChunks(1))
	res := runCollective(t, eng, ce, AllGather, 8*units.MB, FullMachine(top))
	want := units.FromMicros(120) + 3*units.Microsecond
	if res.Duration() != want {
		t.Errorf("duration = %v, want %v", res.Duration(), want)
	}
	if res.TrafficPerDim[0] != 12*units.MB {
		t.Errorf("traffic = %v, want 12MB", res.TrafficPerDim[0])
	}
}

// TestChunkModelMatchesMessageLevel cross-validates the aggregate
// chunk-phase model against the per-message Table I algorithms for all
// three building blocks and all four ops on a single dimension.
func TestChunkModelMatchesMessageLevel(t *testing.T) {
	kinds := []topology.DimModel{topology.Ring, topology.FullyConnected, topology.Switch}
	ops := []Op{ReduceScatter, AllGather, AllReduce, AllToAll}
	for _, kind := range kinds {
		for _, op := range ops {
			top := topology.MustNew(topology.Dim{Kind: kind, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond})

			// Message level.
			engM := timeline.New()
			netM := network.NewBackend(engM, top)
			var msgTime units.Time
			if err := RunMessageLevel(netM, op, 8*units.MB, 0, 0, func(at units.Time) { msgTime = at }); err != nil {
				t.Fatal(err)
			}
			if _, err := engM.Run(); err != nil {
				t.Fatal(err)
			}

			// Chunk-phase model, single chunk.
			engC := timeline.New()
			netC := network.NewBackend(engC, top)
			ce := NewEngine(netC, WithChunks(1))
			var res Result
			if err := ce.Start(op, 8*units.MB, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
				t.Fatal(err)
			}
			if _, err := engC.Run(); err != nil {
				t.Fatal(err)
			}

			// The models must agree within 1% (rounding of uneven chunk
			// splits aside, they compute the same arithmetic).
			diff := res.Duration() - msgTime
			if diff < 0 {
				diff = -diff
			}
			if msgTime == 0 {
				t.Fatalf("%v/%v: message-level time is zero", kind, op)
			}
			if float64(diff)/float64(msgTime) > 0.01 {
				t.Errorf("%v %v: chunk model %v vs message level %v", kind, op, res.Duration(), msgTime)
			}
		}
	}
}

// TestAllReduceEqualsRSPlusAG: an All-Reduce should cost the sum of its
// Reduce-Scatter and All-Gather halves on a single dimension.
func TestAllReduceEqualsRSPlusAG(t *testing.T) {
	top := topology.MustNew(ringDim(8, 150, 0))
	eng1, _, ce1 := newRig(t, top, WithChunks(1))
	ar := runCollective(t, eng1, ce1, AllReduce, 64*units.MB, FullMachine(top))

	eng2, _, ce2 := newRig(t, top, WithChunks(1))
	rs := runCollective(t, eng2, ce2, ReduceScatter, 64*units.MB, FullMachine(top))
	eng3, _, ce3 := newRig(t, top, WithChunks(1))
	ag := runCollective(t, eng3, ce3, AllGather, 64*units.MB, FullMachine(top))

	if ar.Duration() != rs.Duration()+ag.Duration() {
		t.Errorf("AllReduce %v != RS %v + AG %v", ar.Duration(), rs.Duration(), ag.Duration())
	}
}

// TestPipeliningConvergesToBottleneck: with many chunks, a multi-dim
// collective's runtime approaches the bottleneck dimension's serialization
// time (the key behaviour behind Table IV).
func TestPipeliningConvergesToBottleneck(t *testing.T) {
	// 2_8 topology: dim1 fast, dim2 slow.
	top := topology.MustNew(ringDim(2, 1000, 0), ringDim(8, 100, 0))
	eng, _, ce := newRig(t, top, WithChunks(128))
	size := units.ByteSize(1024 * units.MB)
	res := runCollective(t, eng, ce, AllGather, size, FullMachine(top))

	traffic := TrafficPerDim(top, AllGather, size, FullMachine(top))
	bottleneck := top.Dims[1].Bandwidth.TransferTime(traffic[1])
	other := top.Dims[0].Bandwidth.TransferTime(traffic[0])
	if other >= bottleneck {
		t.Fatal("test misconfigured: dim1 should not be the bottleneck")
	}
	ratio := float64(res.Duration()) / float64(bottleneck)
	if ratio < 1.0 || ratio > 1.05 {
		t.Errorf("duration/bottleneck = %.3f, want within [1, 1.05] (pipelined)", ratio)
	}
}

// TestTrafficMatchesClosedForm: the engine's measured per-dim traffic must
// equal the closed-form TrafficPerDim for every op.
func TestTrafficMatchesClosedForm(t *testing.T) {
	top := topology.MustNew(
		ringDim(2, 1000, 0),
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		ringDim(8, 100, 0),
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	size := units.ByteSize(1024 * units.MB)
	for _, op := range []Op{ReduceScatter, AllGather, AllReduce, AllToAll} {
		eng, _, ce := newRig(t, top, WithChunks(64))
		res := runCollective(t, eng, ce, op, size, FullMachine(top))
		want := TrafficPerDim(top, op, size, FullMachine(top))
		for d := range want {
			diff := res.TrafficPerDim[d] - want[d]
			if diff < 0 {
				diff = -diff
			}
			// Integer chunk rounding may shed a few bytes per chunk.
			if diff > units.ByteSize(res.Chunks)*units.ByteSize(top.NumDims()*8) {
				t.Errorf("%v dim %d: engine traffic %v, closed form %v", op, d, res.TrafficPerDim[d], want[d])
			}
		}
	}
}

// TestEstimateMatchesEngine: the closed-form Estimate tracks the
// event-driven engine within a few percent for baseline scheduling.
func TestEstimateMatchesEngine(t *testing.T) {
	top := topology.MustNew(
		ringDim(2, 1000, 0),
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		ringDim(8, 100, 0),
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	size := units.ByteSize(1024 * units.MB)
	for _, op := range []Op{ReduceScatter, AllGather, AllReduce, AllToAll} {
		eng, _, ce := newRig(t, top, WithChunks(64))
		res := runCollective(t, eng, ce, op, size, FullMachine(top))
		est := Estimate(top, op, size, FullMachine(top), Baseline, 64)
		ratio := float64(res.Duration()) / float64(est)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%v: engine %v vs estimate %v (ratio %.3f)", op, res.Duration(), est, ratio)
		}
	}
}

// TestThemisNoGainOn1D: a single-dimension topology offers Themis nothing
// to balance (Fig. 9a, W-1D columns).
func TestThemisNoGainOn1D(t *testing.T) {
	top := topology.MustNew(ringDim(512, 350, 0))
	engB, _, ceB := newRig(t, top, WithChunks(64), WithPolicy(Baseline))
	base := runCollective(t, engB, ceB, AllReduce, units.GB, FullMachine(top))
	engT, _, ceT := newRig(t, top, WithChunks(64), WithPolicy(Themis))
	them := runCollective(t, engT, ceT, AllReduce, units.GB, FullMachine(top))
	if base.Duration() != them.Duration() {
		t.Errorf("1D Themis %v != baseline %v", them.Duration(), base.Duration())
	}
}

// TestThemisBeatsBaselineOnMultiDim: on an unbalanced multi-dim topology,
// Themis's greedy balancing must beat the fixed dim order substantially
// (Fig. 9a shows heavy gains for Conv-3D/Conv-4D).
func TestThemisBeatsBaselineOnMultiDim(t *testing.T) {
	top := topology.MustNew(
		ringDim(2, 250, 0),
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		ringDim(8, 100, 0),
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	engB, _, ceB := newRig(t, top, WithChunks(64), WithPolicy(Baseline))
	base := runCollective(t, engB, ceB, AllReduce, units.GB, FullMachine(top))
	engT, _, ceT := newRig(t, top, WithChunks(64), WithPolicy(Themis))
	them := runCollective(t, engT, ceT, AllReduce, units.GB, FullMachine(top))
	gain := float64(base.Duration()) / float64(them.Duration())
	// Conv-4D's bandwidth profile is the mildest of the paper's multi-dim
	// systems (balanced-ideal gain is 1.34x); steeper profiles like
	// Conv-3D reach ~1.6x and are asserted in the experiment tests.
	if gain < 1.15 {
		t.Errorf("Themis gain %.2fx on Conv-4D-like topology, want >= 1.15x (base %v, themis %v)",
			gain, base.Duration(), them.Duration())
	}
}

// TestThemisApproachesAggregateBandwidth: with balancing, a multi-dim
// All-Reduce should approach total-traffic/aggregate-BW — the mechanism
// behind the paper's "conventional + Themis matches wafer-scale at equal
// BW/NPU" observation.
func TestThemisApproachesAggregateBandwidth(t *testing.T) {
	top := topology.MustNew(
		ringDim(2, 250, 0),
		topology.Dim{Kind: topology.FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		ringDim(8, 100, 0),
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	size := units.ByteSize(1024 * units.MB)
	engT, _, ceT := newRig(t, top, WithChunks(128), WithPolicy(Themis))
	them := runCollective(t, engT, ceT, AllReduce, size, FullMachine(top))

	traffic := TrafficPerDim(top, AllReduce, size, FullMachine(top))
	var total units.ByteSize
	for _, b := range traffic {
		total += b
	}
	ideal := units.FromSeconds(float64(total) / float64(top.AggregateBandwidth()))
	ratio := float64(them.Duration()) / float64(ideal)
	if ratio > 1.30 {
		t.Errorf("Themis %v vs balanced ideal %v (ratio %.3f), want <= 1.30", them.Duration(), ideal, ratio)
	}
	if ratio < 0.99 {
		t.Errorf("Themis %v beat the physical lower bound %v; model broken", them.Duration(), ideal)
	}
}

func TestSubsetDimGroups(t *testing.T) {
	// Hybrid parallelism: MP over dim 0, DP over dim 1. Two MP groups run
	// concurrently and must not contend (disjoint links).
	top := topology.MustNew(ringDim(4, 100, 0), ringDim(2, 100, 0))
	eng, _, ce := newRig(t, top, WithChunks(1))
	g0, _ := NewGroup(top, []int{0}, 0)
	g1, _ := NewGroup(top, []int{0}, 4)
	var d0, d1 units.Time
	if err := ce.Start(AllReduce, 8*units.MB, g0, nil, func(r Result) { d0 = r.Duration() }); err != nil {
		t.Fatal(err)
	}
	if err := ce.Start(AllReduce, 8*units.MB, g1, nil, func(r Result) { d1 = r.Duration() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d0 == 0 || d0 != d1 {
		t.Errorf("concurrent disjoint groups: %v vs %v, want equal and nonzero", d0, d1)
	}
}

func TestStartValidation(t *testing.T) {
	top := topology.MustNew(ringDim(4, 100, 0))
	_, _, ce := newRig(t, top)
	if err := ce.Start(AllReduce, 0, FullMachine(top), nil, nil); err == nil {
		t.Error("expected error for zero size")
	}
	if err := ce.Start(AllGather, 2, FullMachine(top), nil, nil); err == nil {
		t.Error("expected error for shard smaller than one byte")
	}
}

func TestInitialShard(t *testing.T) {
	if InitialShard(AllGather, 1024, 4) != 256 {
		t.Error("AllGather shard wrong")
	}
	if InitialShard(AllReduce, 1024, 4) != 1024 {
		t.Error("AllReduce shard wrong")
	}
}
