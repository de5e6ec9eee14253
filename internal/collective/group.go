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
// positive stride, and the members number at most the NPUs. Spans sharing
// a dimension must nest: by ascending stride, each stride is a multiple of
// the previous span's K × stride, so no two members coincide. And the
// instance Members enumerates must stay inside each dimension: from the
// base's position with every span's digit zeroed, as Origin zeroes it, the
// reach Σ (K-1) × stride of the dimension's spans must not leave it. Then
// the members are distinct ranks that include base and share its Origin.
// It allocates nothing. The base enters only through its position on each
// spanned dimension, so CheckLayout decides a layout for every rank at once.
func CheckSpans(top *topology.Topology, spans []Span, base int) error {
	if len(spans) == 0 {
		return fmt.Errorf("collective: group must have at least one span")
	}
	if base < 0 || base >= top.NumNPUs() {
		return fmt.Errorf("collective: base rank %d out of range", base)
	}
	return checkSpans(top, spans, base)
}

// CheckLayout reports whether spans form a valid group rooted at every
// rank: it returns nil exactly when CheckSpans does at every base, and
// otherwise the error CheckSpans returns at some base. Every position of a
// dimension is some rank's, so it runs the base-independent checks once
// and the reach check at every position of each spanned dimension: its
// cost grows with the dimension sizes, not the NPU count.
func CheckLayout(top *topology.Topology, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("collective: group must have at least one span")
	}
	return checkSpans(top, spans, -1)
}

// checkSpans runs CheckSpans' checks after its base check, the reach check
// at base's position on each dimension, or at every position for a
// negative base.
func checkSpans(top *topology.Topology, spans []Span, base int) error {
	members := 1
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
		size := top.Dims[s.Phys].Size // bounds K and Stride before the reach can overflow
		if s.K > size || s.Stride >= size {
			return fmt.Errorf("collective: span %d (K=%d, stride=%d) exceeds dim %d size %d",
				i, s.K, s.Stride, s.Phys, size)
		}
		if members *= s.K; members > top.NumNPUs() {
			return fmt.Errorf("collective: spans 0..%d have more members than the machine's %d NPUs", i, top.NumNPUs())
		}
	}
	for i, s := range spans {
		if !firstOfDim(spans, i) {
			continue // the dimension's first span checked it
		}
		reach, last := 0, i
		for j := i; j < len(spans); j++ {
			t := spans[j]
			if t.Phys != s.Phys {
				continue
			}
			for k := i; k < j; k++ {
				if u := spans[k]; u.Phys == t.Phys && !nested(u, t) {
					return fmt.Errorf("collective: spans %d and %d overlap on dim %d", k, j, t.Phys)
				}
			}
			reach += (t.K - 1) * t.Stride
			last = j
		}
		size := top.Dims[s.Phys].Size
		lo, hi := 0, size
		if base >= 0 {
			lo = top.DimPos(base, s.Phys)
			hi = lo + 1
		}
		for pos := lo; pos < hi; pos++ {
			if zeroDigits(spans, i, pos)+reach >= size {
				t := spans[last]
				return fmt.Errorf("collective: span %d (K=%d, stride=%d) exceeds dim %d size %d",
					last, t.K, t.Stride, t.Phys, size)
			}
		}
	}
	return nil
}

// zeroDigits returns the position pos on spans[i]'s dimension with the
// digit of each of the dimension's spans from i on zeroed, as Origin
// zeroes it: the position of the instance's first member.
func zeroDigits(spans []Span, i, pos int) int {
	for _, t := range spans[i:] {
		if t.Phys == spans[i].Phys {
			pos -= (pos / t.Stride % t.K) * t.Stride
		}
	}
	return pos
}

// firstOfDim reports whether spans[i] is the first span on its dimension.
func firstOfDim(spans []Span, i int) bool {
	for _, u := range spans[:i] {
		if u.Phys == spans[i].Phys {
			return false
		}
	}
	return true
}

// nested reports whether two spans of one dimension nest: the one with the
// larger stride steps over whole instances of the other.
func nested(a, b Span) bool {
	if a.Stride > b.Stride {
		a, b = b, a
	}
	return a.Stride < b.Stride && b.Stride%(a.K*a.Stride) == 0
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
