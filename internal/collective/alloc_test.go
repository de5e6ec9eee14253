package collective

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// A warm engine allocates nothing per chunk or per phase event: chunks are
// typed timeline actors that live in their run's slab and re-schedule
// themselves, finished runs are recycled through the engine's free list with
// their slabs, fixed-order plans are built once per engine and shared, and
// phase reservations are pure arithmetic on the backend's link ledger. What
// a collective still allocates is per collective, not per chunk: the
// TrafficPerDim slice its Result hands to the caller and, under Themis, the
// per-span load estimates of its ledger registration. The guards below run
// each collective at 8 and 64 chunks, on a whole-machine group and on a
// subset group's registered link set.

// allocTop is the three-dimension machine the allocation guards run on.
func allocTop() *topology.Topology {
	return topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(250), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.FullyConnected, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
}

// collectiveAllocs returns the objects one warm 16 MB All-Reduce allocates
// and the timeline events it fires. subset runs it on a 16-member group
// over dimensions 0 and 2 with its link set registered up front, as core
// does.
func collectiveAllocs(t *testing.T, policy Policy, chunks int, subset bool) (allocs, events float64) {
	t.Helper()
	top := allocTop()
	eng := timeline.New()
	net := network.NewBackend(eng, top)
	ce := NewEngine(net, policy, chunks)
	group, links := FullMachine(top), net.Machine()
	if subset {
		var err error
		if group, err = NewGroup(top, []int{0, 2}, 5); err != nil {
			t.Fatal(err)
		}
		links = net.NewLinkSet(group.Members(top))
	}
	run := func() {
		if err := ce.Start(AllReduce, 16*units.MB, group, links, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the run free list, the timeline arena and the backend
	before := eng.Fired()
	run()
	events = float64(eng.Fired() - before)
	return testing.AllocsPerRun(20, run), events
}

// allocCases names the group and chunk-count combinations the guards cover.
var allocCases = []struct {
	subset bool
	chunks int
}{{false, 8}, {false, 64}, {true, 8}, {true, 64}}

func allocCaseName(subset bool, chunks int) string {
	group := "whole"
	if subset {
		group = "subset"
	}
	return fmt.Sprintf("%s/chunks=%d", group, chunks)
}

// Under the fixed scheduler a warm collective allocates only its result's
// traffic slice, whatever its chunk count: at most 2 objects per
// collective. A per-chunk or per-phase allocation (6 phases per chunk
// here) would blow straight through this.
func TestChunkPathAllocsPerEvent(t *testing.T) {
	for _, c := range allocCases {
		t.Run(allocCaseName(c.subset, c.chunks), func(t *testing.T) {
			allocs, events := collectiveAllocs(t, Baseline, c.chunks, c.subset)
			if allocs > 2 {
				t.Errorf("collective allocates %.0f objects over %.0f events, want <= 2", allocs, events)
			}
		})
	}
}

// Themis plans every chunk (its balancing state evolves between chunks),
// but each chunk slot plans into its own recycled buffer, so a collective's
// allocations do not depend on its chunk count: 8 and 64 chunks must
// allocate the same.
func TestThemisChunkPathAllocsPerEvent(t *testing.T) {
	for _, subset := range []bool{false, true} {
		few, _ := collectiveAllocs(t, Themis, 8, subset)
		many, events := collectiveAllocs(t, Themis, 64, subset)
		if few != many {
			t.Errorf("%s: Themis collective allocates %.0f objects at 8 chunks but %.0f at 64 (%.0f events), want equal",
				allocCaseName(subset, 64), few, many, events)
		}
	}
}
