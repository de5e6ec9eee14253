package collective

import (
	"fmt"
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
		{"reach wraps int", []Span{{Phys: 0, K: 1 << 62, Stride: 4}}, 0},
		{"more members than npus", []Span{{Phys: 0, K: 512, Stride: 1}, {Phys: 0, K: 2, Stride: 1}}, 0},
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

// CheckSpans accepts a layout at a base exactly when the spans of each
// dimension nest and the instance Members enumerates from the base is a
// real one: ∏K distinct ranks below the NPU count that include the base,
// agree with it on every dimension no span names, and share its Origin.
// Every layout of up to three spans over small machines is checked at
// every base, and CheckLayout's verdict on it against those checks.
// Nesting is required, not implied: {K 2, stride 2} with {K 2, stride 3}
// on R(7) forms the real instance [1 3 4 6] from base 1, but not from
// base 0, whose members [0 2 3 5] have two origins.
func TestCheckSpansMatchesMembers(t *testing.T) {
	checked, accepted := 0, 0
	for _, top := range layoutMachines() {
		for _, spans := range spanLayouts(top) {
			for base := 0; base < top.NumNPUs(); base++ {
				err := CheckSpans(top, spans, base)
				real := spansNest(spans) && realInstance(top, spans, base)
				if (err == nil) != real {
					t.Fatalf("%v at base %d of %d NPUs: CheckSpans %v, but members %v (real instance: %v)",
						spans, base, top.NumNPUs(), err, Group{Spans: spans, Base: base}.Members(top), real)
				}
				checked++
				if real {
					accepted++
				}
			}
			if diff := agreesWithEveryBase(top, spans); diff != "" {
				t.Fatalf("%v on %d NPUs: %s", spans, top.NumNPUs(), diff)
			}
		}
	}
	if accepted == 0 || accepted == checked {
		t.Errorf("%d of %d layouts accepted: the property was not exercised", accepted, checked)
	}
}

// layoutMachines returns the ring machines TestCheckSpansMatchesMembers
// enumerates layouts on.
func layoutMachines() []*topology.Topology {
	dims := func(sizes ...int) *topology.Topology {
		var ds []topology.Dim
		for _, n := range sizes {
			ds = append(ds, topology.Dim{Kind: topology.Ring, Size: n, Bandwidth: units.GBps(100)})
		}
		return topology.MustNew(ds...)
	}
	return []*topology.Topology{dims(7), dims(8), dims(12), dims(4, 2), dims(2, 3, 2)}
}

// spanLayouts enumerates layouts of one and two spans on top, and of three
// on machines of at most 8 NPUs: every span has K from 2 to one past its
// dimension's size and a stride from 1 to the size, and a layout's K
// product is at most twice the NPU count. Most are invalid at some base.
func spanLayouts(top *topology.Topology) [][]Span {
	var all []Span
	for d, dim := range top.Dims {
		for k := 2; k <= dim.Size+1; k++ {
			for stride := 1; stride <= dim.Size; stride++ {
				all = append(all, Span{Phys: d, K: k, Stride: stride})
			}
		}
	}
	var layouts [][]Span
	for _, a := range all {
		layouts = append(layouts, []Span{a})
		for _, b := range all {
			if a.K*b.K > 2*top.NumNPUs() {
				continue
			}
			layouts = append(layouts, []Span{a, b})
			if top.NumNPUs() <= 8 {
				for _, c := range all {
					if a.K*b.K*c.K <= 2*top.NumNPUs() {
						layouts = append(layouts, []Span{a, b, c})
					}
				}
			}
		}
	}
	return layouts
}

// spansNest reports whether the spans of each dimension, by ascending
// stride, each step over whole instances of the one before.
func spansNest(spans []Span) bool {
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(a, b Span) int {
		if a.Phys != b.Phys {
			return a.Phys - b.Phys
		}
		return a.Stride - b.Stride
	})
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.Phys == b.Phys && (a.Stride == b.Stride || b.Stride%(a.K*a.Stride) != 0) {
			return false
		}
	}
	return true
}

// realInstance reports whether the members Group.Members enumerates from
// base form a real instance (see TestCheckSpansMatchesMembers).
func realInstance(top *topology.Topology, spans []Span, base int) bool {
	g := Group{Spans: spans, Base: base}
	members := g.Members(top)
	if len(members) != g.Size() || !slices.Contains(members, base) {
		return false
	}
	spanned := make([]bool, top.NumDims())
	for _, s := range spans {
		spanned[s.Phys] = true
	}
	for i, m := range members {
		if m >= top.NumNPUs() || (i > 0 && m == members[i-1]) {
			return false
		}
		for d := range spanned {
			if !spanned[d] && top.DimPos(m, d) != top.DimPos(base, d) {
				return false
			}
		}
		if (Group{Spans: spans, Base: m}).Origin(top) != g.Origin(top) {
			return false
		}
	}
	return true
}

// checkEveryBase returns CheckSpans' error at the lowest base it rejects,
// or nil if it accepts every base: the per-rank reference CheckLayout
// must agree with.
func checkEveryBase(top *topology.Topology, spans []Span) error {
	for base := 0; base < top.NumNPUs(); base++ {
		if err := CheckSpans(top, spans, base); err != nil {
			return err
		}
	}
	return nil
}

// agreesWithEveryBase reports how CheckLayout's verdict on spans differs
// from checking every base, or "" if it does not: both must accept, or
// CheckLayout must return the error CheckSpans returns at some base.
func agreesWithEveryBase(top *topology.Topology, spans []Span) string {
	err, ref := CheckLayout(top, spans), checkEveryBase(top, spans)
	switch {
	case (err == nil) != (ref == nil):
		return fmt.Sprintf("CheckLayout %v, every base %v", err, ref)
	case err == nil:
		return ""
	}
	for base := 0; base < top.NumNPUs(); base++ {
		if e := CheckSpans(top, spans, base); e != nil && e.Error() == err.Error() {
			return ""
		}
	}
	return fmt.Sprintf("CheckLayout %q is CheckSpans' error at no base", err)
}

// CheckLayout's verdict on one defect of each kind, on R(8)_R(6)_R(4): it
// accepts a layout exactly when CheckSpans accepts it at every base. A
// stride-3 pair on R(8) reaches past the edge only from positions 6 and
// 7, and a stride-5 pair only from positions 3 and 4, so both pass at
// some ranks and fail the layout.
func TestCheckLayout(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 6, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
	)
	cases := []struct {
		name  string
		spans []Span
		want  string // "" accepts
	}{
		{"no spans", nil, "collective: group must have at least one span"},
		{"phys out of range", []Span{{Phys: 3, K: 2, Stride: 1}}, "collective: span 0 physical dim 3 out of range"},
		{"negative phys", []Span{{Phys: 0, K: 2, Stride: 1}, {Phys: -1, K: 2, Stride: 1}}, "collective: span 1 physical dim -1 out of range"},
		{"K below 2", []Span{{Phys: 1, K: 1, Stride: 1}}, "collective: span 0 needs K >= 2, got 1"},
		{"zero stride", []Span{{Phys: 1, K: 2, Stride: 0}}, "collective: span 0 needs stride >= 1, got 0"},
		{"stride at size", []Span{{Phys: 2, K: 2, Stride: 4}}, "collective: span 0 (K=2, stride=4) exceeds dim 2 size 4"},
		{"K past size", []Span{{Phys: 2, K: 5, Stride: 1}}, "collective: span 0 (K=5, stride=1) exceeds dim 2 size 4"},
		{"more members than NPUs", []Span{{Phys: 0, K: 8, Stride: 1}, {Phys: 1, K: 6, Stride: 1}, {Phys: 2, K: 4, Stride: 1}, {Phys: 2, K: 2, Stride: 1}},
			"collective: spans 0..3 have more members than the machine's 192 NPUs"},
		{"overlapping", []Span{{Phys: 0, K: 2, Stride: 1}, {Phys: 0, K: 2, Stride: 3}}, "collective: spans 0 and 1 overlap on dim 0"},
		{"same stride", []Span{{Phys: 1, K: 2, Stride: 1}, {Phys: 1, K: 3, Stride: 1}}, "collective: spans 0 and 1 overlap on dim 1"},
		{"nested", []Span{{Phys: 0, K: 4, Stride: 2}, {Phys: 0, K: 2, Stride: 1}}, ""},
		{"reach from high positions", []Span{{Phys: 0, K: 2, Stride: 3}}, "collective: span 0 (K=2, stride=3) exceeds dim 0 size 8"},
		{"reach from middle positions", []Span{{Phys: 0, K: 2, Stride: 5}}, "collective: span 0 (K=2, stride=5) exceeds dim 0 size 8"},
		{"reach of nested spans", []Span{{Phys: 1, K: 2, Stride: 1}, {Phys: 1, K: 2, Stride: 4}}, "collective: span 1 (K=2, stride=4) exceeds dim 1 size 6"},
		{"reach after a fitting dim", []Span{{Phys: 2, K: 2, Stride: 2}, {Phys: 0, K: 2, Stride: 3}}, "collective: span 1 (K=2, stride=3) exceeds dim 0 size 8"},
		{"strided fit", []Span{{Phys: 0, K: 4, Stride: 2}, {Phys: 1, K: 3, Stride: 2}}, ""},
		{"full machine", FullMachine(top).Spans, ""},
	}
	for _, c := range cases {
		err := CheckLayout(top, c.spans)
		if got := fmt.Sprint(err); (err == nil) != (c.want == "") || err != nil && got != c.want {
			t.Errorf("%s: CheckLayout %v, want %q", c.name, err, c.want)
		}
		if diff := agreesWithEveryBase(top, c.spans); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
	}
}

// FuzzLayoutCheck holds CheckLayout to CheckSpans at every base over
// random machines of one to three ring dimensions of 2-12 NPUs and one to
// four spans, each with a dimension from -1 to one past the last, K from
// 0 to one past its dimension's size and a stride from 0 to the size:
// out-of-range dimensions, K below 2, strides of 0 or at the size,
// overlapping and nested spans on one dimension and reaches past the edge
// from some positions.
func FuzzLayoutCheck(f *testing.F) {
	f.Add([]byte{0, 6, 0, 1, 2, 3})                // R(8), {K 2, stride 3}
	f.Add([]byte{1, 6, 4, 1, 2, 2, 1, 2, 2, 4})    // R(8)_R(6), nested spans past the edge of dim 1
	f.Add([]byte{2, 2, 2, 2, 1, 1, 2, 1, 1, 2, 1}) // R(4)_R(4)_R(4), two overlapping spans on dim 0
	f.Add([]byte{0, 10, 0, 1, 0, 5})               // R(12), K 0
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 || n <= 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		dims := make([]topology.Dim, 1+next(3))
		for i := range dims {
			dims[i] = topology.Dim{Kind: topology.Ring, Size: 2 + next(11), Bandwidth: units.GBps(100)}
		}
		top := topology.MustNew(dims...)
		spans := make([]Span, 1+next(4))
		for i := range spans {
			phys, size := next(len(dims)+2)-1, 8
			if phys >= 0 && phys < len(dims) {
				size = dims[phys].Size
			}
			spans[i] = Span{Phys: phys, K: next(size + 2), Stride: next(size + 1)}
		}
		if diff := agreesWithEveryBase(top, spans); diff != "" {
			t.Fatalf("%v on %v: %s", spans, top, diff)
		}
	})
}
