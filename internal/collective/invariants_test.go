package collective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Property tests for the collective model's structural invariants.

func randomTopo(rng *rand.Rand) *topology.Topology {
	nd := rng.Intn(3) + 2
	kinds := []topology.DimModel{
		topology.Ring, topology.FullyConnected, topology.Switch,
		topology.Mesh, topology.Torus2D(2, 4), topology.OversubscribedSwitch(2),
	}
	dims := make([]topology.Dim, nd)
	for i := range dims {
		kind := kinds[rng.Intn(len(kinds))]
		size := []int{2, 4, 8}[rng.Intn(3)]
		if kind == topology.Torus2D(2, 4) {
			size = 8
		}
		dims[i] = topology.Dim{
			Kind:      kind,
			Size:      size,
			Bandwidth: units.GBps(float64(rng.Intn(400) + 50)),
		}
	}
	return topology.MustNew(dims...)
}

// TestTotalTrafficOrderInvariant: for Reduce-Scatter / All-Gather /
// All-Reduce, the total per-NPU traffic summed over dimensions does not
// depend on the scheduler's ordering choices — the telescoping identity
// sum(D_i - D_i/k_i) = S - S/N. This is the property that makes the
// Themis planner's balanced target achievable in the first place.
func TestTotalTrafficOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopo(rng)
		size := units.ByteSize(rng.Intn(512)+64) * units.MiB
		g := FullMachine(top)
		n := g.Size()

		for _, op := range []Op{ReduceScatter, AllGather, AllReduce} {
			for _, policy := range []Policy{Baseline, Themis} {
				eng := timeline.New()
				net := network.NewBackend(eng, top)
				ce := NewEngine(net, WithChunks(16), WithPolicy(policy))
				var res Result
				if err := ce.Start(op, size, g, nil, func(r Result) { res = r }); err != nil {
					return false
				}
				if _, err := eng.Run(); err != nil {
					return false
				}
				var total units.ByteSize
				for _, b := range res.TrafficPerDim {
					total += b
				}
				shard := InitialShard(op, size, n)
				var expect units.ByteSize
				switch op {
				case ReduceScatter:
					expect = 2 * (shard - shard/units.ByteSize(n))
				case AllGather:
					expect = 2 * (shard*units.ByteSize(n) - shard)
				case AllReduce:
					expect = 4 * (shard - shard/units.ByteSize(n))
				}
				// Integer chunk rounding loses at most a few bytes per
				// chunk per phase.
				slack := units.ByteSize(16 * 2 * top.NumDims() * 8)
				diff := total - expect
				if diff < 0 {
					diff = -diff
				}
				if diff > slack {
					return false
				}
			}
		}
		return true
	}
	// Deterministic generator seed: property failures must reproduce.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestThemisNeverSlowerOnIdleNetwork: on an otherwise idle network, Themis
// must never lose to the baseline by more than pipeline-packing noise
// (empirically bounded at ~12% on adversarial random topologies).
func TestThemisNeverSlowerOnIdleNetwork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopo(rng)
		size := units.ByteSize(rng.Intn(512)+64) * units.MiB
		run := func(p Policy) units.Time {
			eng := timeline.New()
			net := network.NewBackend(eng, top)
			ce := NewEngine(net, WithChunks(64), WithPolicy(p))
			var res Result
			if err := ce.Start(AllReduce, size, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
				return 0
			}
			if _, err := eng.Run(); err != nil {
				return 0
			}
			return res.Duration()
		}
		base, themis := run(Baseline), run(Themis)
		if base == 0 || themis == 0 {
			return false
		}
		return float64(themis) <= 1.15*float64(base)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDurationScalesLinearlyWithSize: for bandwidth-bound collectives with
// zero latency, doubling the payload doubles the runtime.
func TestDurationScalesLinearlyWithSize(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	run := func(size units.ByteSize) units.Time {
		eng := timeline.New()
		net := network.NewBackend(eng, top)
		ce := NewEngine(net, WithChunks(16))
		var res Result
		if err := ce.Start(AllReduce, size, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	small, big := run(64*units.MiB), run(128*units.MiB)
	ratio := float64(big) / float64(small)
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("doubling size scaled runtime by %.4f, want 2.0", ratio)
	}
}

// TestProjectedLedgerDrainsToZero: after all collectives complete, the
// engine's projected-load ledger must return to zero (no leaks).
func TestProjectedLedgerDrainsToZero(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(50)},
	)
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, WithChunks(8), WithPolicy(Themis))
	for i := 0; i < 5; i++ {
		if err := ce.Start(AllReduce, 32*units.MiB, FullMachine(top), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for npu := range ce.projected {
		for d, v := range ce.projected[npu] {
			if v < -1e-9 || v > 1e-9 {
				t.Fatalf("projected[%d][%d] = %g after drain, want 0", npu, d, v)
			}
		}
	}
}

// TestManyConcurrentSubgroupCollectives: every dim-0 group runs its own
// collective; all must complete and the makespan must equal a single
// group's runtime (disjoint resources).
func TestManyConcurrentSubgroupCollectives(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
	)
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, WithChunks(8))
	done := 0
	var first units.Time
	for base := 0; base < 64; base += 8 {
		g, err := NewGroup(top, []int{0}, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := ce.Start(AllReduce, 16*units.MiB, g, nil, func(r Result) {
			done++
			if first == 0 {
				first = r.Duration()
			} else if r.Duration() != first {
				t.Errorf("group durations diverge: %v vs %v", r.Duration(), first)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done != 8 {
		t.Fatalf("%d groups completed, want 8", done)
	}
	if end != first {
		t.Errorf("makespan %v != single-group duration %v (groups are disjoint)", end, first)
	}
}
