package collective

import (
	"slices"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

func wafer512() *topology.Topology {
	return topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 512, Bandwidth: units.GBps(350),
	})
}

func TestSpanGroupContiguous(t *testing.T) {
	top := wafer512()
	// A model-parallel group of 16 adjacent NPUs starting at rank 32.
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 16, Stride: 1}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 16 || m[0] != 32 || m[15] != 47 {
		t.Fatalf("members = %v", m)
	}
	if g.Size() != 16 {
		t.Errorf("Size = %d", g.Size())
	}
}

func TestSpanGroupStrided(t *testing.T) {
	top := wafer512()
	// The data-parallel counterpart: 32 members with stride 16, from any
	// base inside the group.
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 32, Stride: 16}}, 48)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 32 {
		t.Fatalf("len(members) = %d", len(m))
	}
	for i, r := range m {
		if r != i*16 {
			t.Fatalf("members[%d] = %d, want %d", i, r, i*16)
		}
	}
}

// Every member of an instance, used as Base, yields the instance's lowest
// member as its Origin, and distinct instances of one layout yield distinct
// origins — across strided spans, several spans on one physical dimension,
// and spans over the upper dimensions of a multi-dimensional machine.
func TestSpanGroupBaseNormalization(t *testing.T) {
	multi := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 6, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
	)
	cases := []struct {
		name  string
		top   *topology.Topology
		spans []Span
	}{
		{"contiguous", wafer512(), []Span{{Phys: 0, K: 16, Stride: 1}}},
		{"strided", wafer512(), []Span{{Phys: 0, K: 32, Stride: 16}}},
		{"two spans one dim", wafer512(), []Span{{Phys: 0, K: 4, Stride: 1}, {Phys: 0, K: 8, Stride: 4}}},
		{"upper dims", multi, []Span{{Phys: 1, K: 3, Stride: 2}, {Phys: 2, K: 4, Stride: 1}}},
		{"full machine", multi, FullMachine(multi).Spans},
	}
	for _, c := range cases {
		origins := make(map[int]int) // origin -> any member naming it
		for rank := 0; rank < c.top.NumNPUs(); rank++ {
			if CheckSpans(c.top, c.spans, rank) != nil {
				continue
			}
			g := Group{Spans: c.spans, Base: rank}
			members := g.Members(c.top)
			origin := g.Origin(c.top)
			if origin != members[0] {
				t.Fatalf("%s: base %d origin %d, lowest member %d", c.name, rank, origin, members[0])
			}
			for _, m := range members {
				if o := (Group{Spans: c.spans, Base: m}).Origin(c.top); o != origin {
					t.Fatalf("%s: member %d of base %d's instance has origin %d, want %d", c.name, m, rank, o, origin)
				}
			}
			if prev, ok := origins[origin]; ok {
				if pm := (Group{Spans: c.spans, Base: prev}).Members(c.top); !slices.Equal(pm, members) {
					t.Fatalf("%s: instances %v and %v share origin %d", c.name, pm, members, origin)
				}
			}
			origins[origin] = rank
		}
		if len(origins) < 2 && c.name != "full machine" {
			t.Errorf("%s: only %d instances", c.name, len(origins))
		}
	}
}

func TestOriginDoesNotAllocate(t *testing.T) {
	top := wafer512()
	g := Group{Spans: []Span{{Phys: 0, K: 32, Stride: 16}}, Base: 301}
	if n := testing.AllocsPerRun(100, func() { _ = g.Origin(top) }); n != 0 {
		t.Errorf("Origin allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = CheckSpans(top, g.Spans, 301) }); n != 0 {
		t.Errorf("CheckSpans allocates %v times", n)
	}
}

func TestSpanGroupValidation(t *testing.T) {
	top := wafer512()
	cases := []struct {
		name  string
		spans []Span
		base  int
	}{
		{"no spans", nil, 0},
		{"bad phys", []Span{{Phys: 3, K: 2, Stride: 1}}, 0},
		{"k too small", []Span{{Phys: 0, K: 1, Stride: 1}}, 0},
		{"zero stride", []Span{{Phys: 0, K: 2, Stride: 0}}, 0},
		{"overflow", []Span{{Phys: 0, K: 64, Stride: 16}}, 0}, // 63*16 >= 512
		{"bad base", []Span{{Phys: 0, K: 2, Stride: 1}}, 9999},
	}
	for _, c := range cases {
		if _, err := NewSpanGroup(top, c.spans, c.base); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestHybridGroupsPartitionTheWafer(t *testing.T) {
	top := wafer512()
	const mp, dp = 16, 32
	// The MP groups (one per DP position crossed with base offsets) and DP
	// groups must each partition the 512 NPUs.
	seen := make(map[int]bool)
	for base := 0; base < 512; base += mp {
		g, err := NewSpanGroup(top, []Span{{Phys: 0, K: mp, Stride: 1}}, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members(top) {
			if seen[m] {
				t.Fatalf("rank %d in two MP groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 512 {
		t.Errorf("MP groups covered %d ranks", len(seen))
	}
	seen = make(map[int]bool)
	for base := 0; base < mp; base++ {
		g, err := NewSpanGroup(top, []Span{{Phys: 0, K: dp, Stride: mp}}, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members(top) {
			if seen[m] {
				t.Fatalf("rank %d in two DP groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 512 {
		t.Errorf("DP groups covered %d ranks", len(seen))
	}
}

func TestStridedCollectiveRuns(t *testing.T) {
	top := topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 64, Bandwidth: units.GBps(100),
	})
	eng, _, ce := newRig(t, top, WithChunks(4))
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 8, Stride: 8}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runCollective(t, eng, ce, AllReduce, 8*units.MB, g)
	// All-Reduce over 8 logical members: traffic 2*2*S*(7/8) = 28 MB at
	// 100 GB/s = 280 us.
	want := units.FromMicros(280)
	if res.Duration() != want {
		t.Errorf("strided All-Reduce = %v, want %v", res.Duration(), want)
	}
}

func TestMultiSpanSamePhysicalDim(t *testing.T) {
	// A 2D logical decomposition of one physical dimension: 4x4 over a
	// 16-ring. Legal and useful for logical-topology studies.
	top := topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 16, Bandwidth: units.GBps(100),
	})
	g, err := NewSpanGroup(top, []Span{
		{Phys: 0, K: 4, Stride: 1},
		{Phys: 0, K: 4, Stride: 4},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 16 {
		t.Fatalf("members = %v", m)
	}
	for i, r := range m {
		if r != i {
			t.Fatalf("members[%d] = %d", i, r)
		}
	}
}
