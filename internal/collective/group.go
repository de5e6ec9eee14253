package collective

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Span is one logical dimension of a communicator group, mapped onto a
// physical topology dimension. A dimension-aligned group uses one span per
// physical dimension with K equal to the dimension size. Strided spans
// express subgroups inside a physical dimension — e.g. on a 1-D wafer of
// 512 NPUs, a model-parallel group of 16 is Span{Phys: 0, K: 16, Stride: 1}
// and its data-parallel counterpart is Span{Phys: 0, K: 32, Stride: 16}.
// The logical collective algorithm runs over K members and consumes the
// physical dimension's bandwidth.
type Span struct {
	// Phys is the physical topology dimension this span communicates on.
	Phys int
	// K is the number of group members along this logical dimension.
	K int
	// Stride is the member-to-member distance in physical-dimension
	// coordinates (1 = adjacent).
	Stride int
}

// Group is a communicator: the set of NPUs reached from Base by varying
// each span's logical coordinate.
type Group struct {
	Spans []Span
	// Base is a member rank; its coordinates outside the spans identify
	// the communicator instance.
	Base int
}

// NewGroup builds a dimension-aligned group spanning the given physical
// dimensions in full, the common case for hybrid-parallel mappings.
func NewGroup(top *topology.Topology, dims []int, base int) (Group, error) {
	if len(dims) == 0 {
		return Group{}, fmt.Errorf("collective: group must span at least one dimension")
	}
	sorted := append([]int(nil), dims...)
	sort.Ints(sorted)
	spans := make([]Span, 0, len(sorted))
	for i, d := range sorted {
		if i > 0 && sorted[i-1] == d {
			return Group{}, fmt.Errorf("collective: duplicate dim %d", d)
		}
		if d < 0 || d >= top.NumDims() {
			return Group{}, fmt.Errorf("collective: dim %d out of range [0,%d)", d, top.NumDims())
		}
		spans = append(spans, Span{Phys: d, K: top.Dims[d].Size, Stride: 1})
	}
	return NewSpanGroup(top, spans, base)
}

// NewSpanGroup builds a group from explicit spans, validating that every
// member lands inside the topology without wrapping.
func NewSpanGroup(top *topology.Topology, spans []Span, base int) (Group, error) {
	if err := CheckSpans(top, spans, base); err != nil {
		return Group{}, err
	}
	return Group{Spans: append([]Span(nil), spans...), Base: base}, nil
}

// CheckSpans reports whether spans form a valid group rooted at base: every
// span names an existing physical dimension, has K >= 2 members and a
// positive stride, and the members reached from base stay inside the
// dimension without wrapping. It allocates nothing, so callers can check a
// span layout against every rank that uses it.
func CheckSpans(top *topology.Topology, spans []Span, base int) error {
	if len(spans) == 0 {
		return fmt.Errorf("collective: group must have at least one span")
	}
	if base < 0 || base >= top.NumNPUs() {
		return fmt.Errorf("collective: base rank %d out of range", base)
	}
	for i, s := range spans {
		if s.Phys < 0 || s.Phys >= top.NumDims() {
			return fmt.Errorf("collective: span %d physical dim %d out of range", i, s.Phys)
		}
		if s.K < 2 {
			return fmt.Errorf("collective: span %d needs K >= 2, got %d", i, s.K)
		}
		if s.Stride < 1 {
			return fmt.Errorf("collective: span %d needs stride >= 1, got %d", i, s.Stride)
		}
		reach := top.DimPos(base, s.Phys)%s.Stride + (s.K-1)*s.Stride
		if reach >= top.Dims[s.Phys].Size {
			return fmt.Errorf("collective: span %d (K=%d, stride=%d) exceeds dim %d size %d",
				i, s.K, s.Stride, s.Phys, top.Dims[s.Phys].Size)
		}
	}
	return nil
}

// FullMachine returns the group spanning every physical dimension in full.
func FullMachine(top *topology.Topology) Group {
	spans := make([]Span, top.NumDims())
	for i := range spans {
		spans[i] = Span{Phys: i, K: top.Dims[i].Size, Stride: 1}
	}
	return Group{Spans: spans, Base: 0}
}

// Size returns the number of group members.
func (g Group) Size() int {
	n := 1
	for _, s := range g.Spans {
		n *= s.K
	}
	return n
}

// Origin returns the group instance's lowest member rank, computed
// arithmetically without allocating: along each span, the base rank's
// coordinate is reset by however many whole strides it sits past the
// instance's first member. Any member serving as Base yields the same
// origin, and distinct instances of one span layout yield distinct origins,
// so (origin, layout) identifies a communicator instance.
func (g Group) Origin(top *topology.Topology) int {
	origin := g.Base
	for _, s := range g.Spans {
		step := top.DimStride(s.Phys)
		pos := origin / step % top.Dims[s.Phys].Size
		origin -= (pos / s.Stride % s.K) * s.Stride * step
	}
	return origin
}

// Members enumerates the member ranks in ascending order, starting from the
// group's Origin (so any member can serve as Base).
func (g Group) Members(top *topology.Topology) []int {
	members := []int{g.Origin(top)}
	for _, s := range g.Spans {
		step := top.DimStride(s.Phys) * s.Stride
		grown := make([]int, 0, len(members)*s.K)
		for i := 0; i < s.K; i++ {
			for _, m := range members {
				grown = append(grown, m+i*step)
			}
		}
		members = grown
	}
	if !sort.IntsAreSorted(members) {
		sort.Ints(members)
	}
	return members
}
