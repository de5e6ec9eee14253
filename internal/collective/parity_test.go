package collective

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Estimate-vs-event-sim parity: the closed-form Estimate and the
// event-driven engine share the dimension-model hooks, so for every
// registered block they must agree on All-Reduce and All-Gather runtimes.

// parityDims returns one single-dimension topology per registered block,
// all at 100 GB/s with a 500 ns hop latency.
func parityDims() []topology.Dim {
	mk := func(kind topology.DimModel, size int) topology.Dim {
		return topology.Dim{Kind: kind, Size: size, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond}
	}
	return []topology.Dim{
		mk(topology.Ring, 8),
		mk(topology.FullyConnected, 8),
		mk(topology.Switch, 8),
		mk(topology.Mesh, 8),
		mk(topology.Torus2D(4, 2), 8),
		mk(topology.OversubscribedSwitch(4), 8),
	}
}

func runEngineOnce(t *testing.T, top *topology.Topology, op Op, size units.ByteSize, chunks int, policy Policy) units.Time {
	t.Helper()
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, WithChunks(chunks), WithPolicy(policy))
	var res Result
	if err := ce.Start(op, size, FullMachine(top), nil, func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return res.Duration()
}

// TestEstimateMatchesEngineSingleDim: on a single dimension the baseline
// estimate is exact for every block (one pipeline stage, no ramp term).
func TestEstimateMatchesEngineSingleDim(t *testing.T) {
	for _, d := range parityDims() {
		top := topology.MustNew(d)
		for _, op := range []Op{AllReduce, AllGather} {
			t.Run(fmt.Sprintf("%s/%v", d.Format(), op), func(t *testing.T) {
				const size = 64 * units.MB
				got := runEngineOnce(t, top, op, size, 1, Baseline)
				want := Estimate(top, op, size, FullMachine(top), Baseline, 1)
				diff := got - want
				if diff < 0 {
					diff = -diff
				}
				if float64(diff) > 0.001*float64(want) {
					t.Errorf("engine %v vs estimate %v", got, want)
				}
			})
		}
	}
}

// TestEstimateMatchesEngineStacked: a three-dim stack mixing new and
// classic blocks must agree within the pipelining approximation for both
// schedulers.
func TestEstimateMatchesEngineStacked(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Torus2D(2, 2), Size: 4, Bandwidth: units.GBps(200), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Mesh, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.OversubscribedSwitch(2), Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
	)
	for _, op := range []Op{AllReduce, AllGather} {
		for _, policy := range []Policy{Baseline, Themis} {
			t.Run(fmt.Sprintf("%v/%v", op, policy), func(t *testing.T) {
				const size = 256 * units.MB
				got := runEngineOnce(t, top, op, size, 64, policy)
				want := Estimate(top, op, size, FullMachine(top), policy, 64)
				ratio := float64(got) / float64(want)
				// The Themis estimate is a balanced-load lower bound; on
				// dimension stacks with very uneven effective bandwidths
				// (the derated mesh here) the engine's greedy packing can
				// sit up to ~25% above it. Baseline is a direct model of
				// the fixed schedule and stays within 15%.
				hi := 1.15
				if policy == Themis {
					hi = 1.3
				}
				if ratio < 0.85 || ratio > hi {
					t.Errorf("engine %v vs estimate %v (ratio %.3f)", got, want, ratio)
				}
			})
		}
	}
}

// TestOversubscriptionSlowsCollective: SW(k,o) must run exactly o times
// slower than SW(k) on a bandwidth-bound collective (zero latency), in
// both the engine and the estimator.
func TestOversubscriptionSlowsCollective(t *testing.T) {
	mk := func(kind topology.DimModel) *topology.Topology {
		return topology.MustNew(topology.Dim{Kind: kind, Size: 8, Bandwidth: units.GBps(200)})
	}
	plain, tapered := mk(topology.Switch), mk(topology.OversubscribedSwitch(4))
	const size = 128 * units.MB
	pe := runEngineOnce(t, plain, AllReduce, size, 16, Baseline)
	te := runEngineOnce(t, tapered, AllReduce, size, 16, Baseline)
	if te != 4*pe {
		t.Errorf("engine: tapered %v, want exactly 4x plain %v", te, pe)
	}
	pc := Estimate(plain, AllReduce, size, FullMachine(plain), Baseline, 16)
	tc := Estimate(tapered, AllReduce, size, FullMachine(tapered), Baseline, 16)
	if tc != 4*pc {
		t.Errorf("estimate: tapered %v, want exactly 4x plain %v", tc, pc)
	}
}

// TestMessageLevelMatchesChunkModelNewBlocks extends the Table I
// cross-validation to the Mesh and Torus2D blocks: the aggregate
// chunk-phase model must agree with the model-scheduled per-message
// algorithms on bandwidth-dominated collectives.
func TestMessageLevelMatchesChunkModelNewBlocks(t *testing.T) {
	kinds := []topology.Dim{
		{Kind: topology.Mesh, Size: 8, Bandwidth: units.GBps(100)},
		{Kind: topology.Torus2D(4, 2), Size: 8, Bandwidth: units.GBps(100)},
		{Kind: topology.OversubscribedSwitch(2), Size: 8, Bandwidth: units.GBps(100)},
	}
	for _, d := range kinds {
		top := topology.MustNew(d)
		for _, op := range []Op{ReduceScatter, AllGather, AllReduce} {
			t.Run(fmt.Sprintf("%s/%v", d.Format(), op), func(t *testing.T) {
				engM := timeline.New()
				netM := network.NewBackend(engM, top)
				var msgTime units.Time
				if err := RunMessageLevel(netM, op, 8*units.MB, 0, 0, func(at units.Time) { msgTime = at }); err != nil {
					t.Fatal(err)
				}
				if _, err := engM.Run(); err != nil {
					t.Fatal(err)
				}
				chunk := runEngineOnce(t, top, op, 8*units.MB, 1, Baseline)
				if msgTime == 0 {
					t.Fatal("message-level time is zero")
				}
				diff := chunk - msgTime
				if diff < 0 {
					diff = -diff
				}
				if float64(diff)/float64(msgTime) > 0.01 {
					t.Errorf("chunk model %v vs message level %v", chunk, msgTime)
				}
			})
		}
	}
}
