package collective

import (
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// The chunk-phase hot path must not allocate per phase event: chunks are
// typed timeline actors re-scheduling themselves, fixed-order plans are
// shared across the whole wave, and phase reservations are pure arithmetic
// on the backend's link ledger. What remains is per-run setup — the run
// record, its per-span bookkeeping, the member list, and one chunkState per
// chunk — so the guard bounds allocations per collective at a small
// constant plus ~1 object per chunk, far below one per event.
func TestChunkPathAllocsPerEvent(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(250), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.FullyConnected, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
	const chunks = 64
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, WithChunks(chunks))
	group := FullMachine(top)

	run := func() {
		if err := ce.Start(AllReduce, 16*units.MB, group, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm engine arena and backend pools
	before := eng.Fired()
	run()
	events := float64(eng.Fired() - before)
	allocs := testing.AllocsPerRun(20, run)

	perEvent := allocs / events
	if perEvent > 0.5 {
		t.Errorf("chunk path allocates %.2f objects/event (%.0f allocs over %.0f events), want <= 0.5",
			perEvent, allocs, events)
	}
	// Absolute guard: setup plus at most ~1.5 objects per chunk. A
	// per-phase allocation regression (6 phases/chunk here) would blow
	// straight through this.
	if limit := 32 + 1.5*chunks; allocs > limit {
		t.Errorf("collective run allocates %.0f objects, want <= %.0f", allocs, limit)
	}
}

// Themis plans per chunk (its balancing state evolves between chunks), but
// planning must stay cheap: scratch is reused, so the only per-chunk cost
// is the chunk's own phase plan.
func TestThemisChunkPathAllocsPerEvent(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(200), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
	const chunks = 64
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, WithChunks(chunks), WithPolicy(Themis))
	group := FullMachine(top)

	run := func() {
		if err := ce.Start(AllReduce, 16*units.MB, group, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := eng.Fired()
	run()
	events := float64(eng.Fired() - before)
	allocs := testing.AllocsPerRun(20, run)

	if perEvent := allocs / events; perEvent > 1.0 {
		t.Errorf("Themis chunk path allocates %.2f objects/event (%.0f allocs over %.0f events), want <= 1.0",
			perEvent, allocs, events)
	}
}
