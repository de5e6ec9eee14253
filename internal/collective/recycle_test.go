package collective

import (
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/units"
)

// Finished runs are recycled through the engine's free list, so a collective
// started from inside another's done callback runs on records the engine has
// used before. Each chained result must equal the result of the same
// collective alone on a fresh engine, and a result handed out earlier must
// not change when later collectives reuse its run.
func TestRecycledRunsMatchFreshEngines(t *testing.T) {
	top := allocTop()
	steps := []struct {
		op   Op
		size units.ByteSize
	}{
		{AllReduce, 16 * units.MB},
		{ReduceScatter, 8 * units.MB},
		{AllGather, 4 * units.MB},
		{AllToAll, 2 * units.MB},
		{AllReduce, 3}, // fewer chunks than the engine's 64
		{AllReduce, 16 * units.MB},
		{AllGather, 4 * units.MB},
		{AllToAll, 2 * units.MB}, // its shared base plan has been reused by now
	}
	// machine builds a timeline, backend and engine, with the group's link
	// set registered up front for a subset group.
	machine := func(policy Policy, subset bool) (*timeline.Engine, *Engine, Group, *network.LinkSet) {
		eng := timeline.New()
		net := network.NewBackend(eng, top)
		ce := NewEngine(net, WithChunks(64), WithPolicy(policy))
		if !subset {
			return eng, ce, FullMachine(top), nil
		}
		g, err := NewGroup(top, []int{0, 2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return eng, ce, g, net.NewLinkSet(g.Members(top))
	}
	for _, policy := range []Policy{Baseline, Themis} {
		for _, subset := range []bool{false, true} {
			name := policy.String() + "/whole"
			if subset {
				name = policy.String() + "/subset"
			}
			t.Run(name, func(t *testing.T) {
				want := make([]Result, len(steps))
				for i, st := range steps {
					i := i // captured by the done callback
					eng, ce, g, links := machine(policy, subset)
					if err := ce.Start(st.op, st.size, g, links, func(r Result) { want[i] = r }); err != nil {
						t.Fatal(err)
					}
					if _, err := eng.Run(); err != nil {
						t.Fatal(err)
					}
				}

				eng, ce, g, links := machine(policy, subset)
				var got []Result
				var kept [][]units.ByteSize
				var start func(i int)
				start = func(i int) {
					err := ce.Start(steps[i].op, steps[i].size, g, links, func(r Result) {
						got = append(got, r)
						kept = append(kept, append([]units.ByteSize(nil), r.TrafficPerDim...))
						if i+1 < len(steps) {
							start(i + 1)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				start(0)
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}

				if len(got) != len(steps) {
					t.Fatalf("%d collectives completed, want %d", len(got), len(steps))
				}
				for i, r := range got {
					w := want[i]
					if r.Op != w.Op || r.Size != w.Size || r.Chunks != w.Chunks || r.Duration() != w.Duration() ||
						!reflect.DeepEqual(r.TrafficPerDim, w.TrafficPerDim) {
						t.Errorf("collective %d: chained %+v (took %v), fresh engine %+v (took %v)",
							i, r, r.Duration(), w, w.Duration())
					}
					if i > 0 && r.Start != got[i-1].End {
						t.Errorf("collective %d started at %v, want its predecessor's end %v", i, r.Start, got[i-1].End)
					}
					if !reflect.DeepEqual(r.TrafficPerDim, kept[i]) {
						t.Errorf("collective %d: TrafficPerDim changed to %v after later collectives, was %v",
							i, r.TrafficPerDim, kept[i])
					}
				}
				// Each Start inside done runs before the finishing run is
				// recycled, so the chain alternates between two run records.
				if n := len(ce.freeRuns); n != 2 {
					t.Errorf("engine holds %d recycled runs after the chain, want 2", n)
				}
			})
		}
	}
}
