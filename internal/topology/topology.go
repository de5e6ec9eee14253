// Package topology implements the paper's multi-dimensional hierarchical
// network representation (Section IV-B): arbitrary topologies are assembled
// by stacking building blocks, each of which has a known congestion-free
// topology-aware collective algorithm (Table I):
//
//	Ring           -> Ring collective
//	FullyConnected -> Direct collective
//	Switch         -> Halving-Doubling collective
//	Mesh           -> Ring collective over a dilation-2 line embedding
//	Torus2D        -> per-axis bidirectional-ring phases
//
// Block behavior lives behind the DimModel interface (model.go), and the
// notation resolves through a fixed block table, so new fabrics plug in
// without touching the parser, the estimator, or the event-driven engine.
//
// NPUs are addressed by mixed-radix coordinates: dimension 1 varies fastest,
// matching the paper's convention that Dim 1 is the innermost (e.g. on-chip
// or on-wafer) network.
package topology

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Dim is one dimension of a multi-dimensional topology: a building block of
// a given size with a per-NPU bandwidth and a per-hop link latency.
type Dim struct {
	// Kind is the dimension's building-block model (Ring, FullyConnected,
	// Switch, Mesh, Torus2D(a,b), OversubscribedSwitch(o), ...).
	Kind DimModel
	// Size is the number of NPUs connected by this block (k in Ring(k)).
	Size int
	// Bandwidth is the network bandwidth available to each NPU on this
	// dimension, in the paper's per-dimension GB/s convention (Table II).
	// Blocks may derate it (see EffectiveBandwidth).
	Bandwidth units.Bandwidth
	// Latency is the per-hop link traversal latency.
	Latency units.Time
}

// Hops returns the number of link traversals for a message between two
// distinct positions a and b within this dimension.
func (d Dim) Hops(a, b int) int {
	if a == b {
		return 0
	}
	return d.Kind.Hops(a, b, d.Size)
}

// EffectiveBandwidth is the bandwidth the block actually delivers per NPU
// after any model-level derating (e.g. switch oversubscription).
func (d Dim) EffectiveBandwidth() units.Bandwidth {
	return d.Kind.EffectiveBandwidth(d.Bandwidth, d.Size)
}

// TransferTime is the serialization time of size bytes at the dimension's
// effective bandwidth.
func (d Dim) TransferTime(size units.ByteSize) units.Time {
	return d.EffectiveBandwidth().TransferTime(size)
}

// PhaseLatency is the latency component of one collective phase over k
// members of this dimension.
func (d Dim) PhaseLatency(k int) units.Time {
	if k <= 1 {
		return 0
	}
	return d.Kind.PhaseLatency(k, d.Latency)
}

// PhaseTraffic is the per-NPU sent+received bytes of one collective phase
// with per-NPU input size dataSize over k members of this dimension.
func (d Dim) PhaseTraffic(op PhaseKind, dataSize units.ByteSize, k int) units.ByteSize {
	return genericPhaseTraffic(op, dataSize, k)
}

// Format renders the dimension in shape notation, e.g. "R(8)" or "T2D(4,2)".
func (d Dim) Format() string { return d.Kind.Format(d.Size) }

// Topology is an ordered stack of dimensions; Dim 1 is index 0.
type Topology struct {
	Dims []Dim
}

// New validates and constructs a topology from its dimensions. Every
// dimension must carry a registered block model; nil or invalid blocks are
// construction-time errors (there is no default block).
func New(dims ...Dim) (*Topology, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topology: at least one dimension required")
	}
	total := 1
	for i, d := range dims {
		if d.Kind == nil {
			return nil, fmt.Errorf("topology: dim %d has no building-block model (registered: %s)",
				i+1, strings.Join(RegisteredBlocks(), ", "))
		}
		if d.Size < 2 {
			return nil, fmt.Errorf("topology: dim %d size %d; building blocks need k >= 2", i+1, d.Size)
		}
		if err := d.Kind.Validate(d.Size); err != nil {
			return nil, fmt.Errorf("topology: dim %d %s: %w", i+1, d.Kind.LongName(), err)
		}
		if d.Bandwidth < 0 {
			return nil, fmt.Errorf("topology: dim %d has negative bandwidth", i+1)
		}
		if d.Latency < 0 {
			return nil, fmt.Errorf("topology: dim %d has negative latency", i+1)
		}
		total *= d.Size
		if total > 1<<24 {
			return nil, fmt.Errorf("topology: more than %d NPUs is not supported", 1<<24)
		}
	}
	t := &Topology{Dims: append([]Dim(nil), dims...)}
	return t, nil
}

// MustNew is New for statically known-good topologies; it panics on error.
func MustNew(dims ...Dim) *Topology {
	t, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumNPUs returns the total number of NPUs (the product of dim sizes).
func (t *Topology) NumNPUs() int {
	n := 1
	for _, d := range t.Dims {
		n *= d.Size
	}
	return n
}

// NumDims returns the number of stacked dimensions.
func (t *Topology) NumDims() int { return len(t.Dims) }

// String returns the paper's shape notation, e.g. "R(4)_FC(2)_SW(2)" or
// "T2D(4,4)_SW(8,2)".
func (t *Topology) String() string {
	parts := make([]string, len(t.Dims))
	for i, d := range t.Dims {
		parts[i] = d.Format()
	}
	return strings.Join(parts, "_")
}

// Coord converts a linear NPU rank to mixed-radix coordinates (Dim 1
// varies fastest).
func (t *Topology) Coord(rank int) []int {
	c := make([]int, len(t.Dims))
	for i, d := range t.Dims {
		c[i] = rank % d.Size
		rank /= d.Size
	}
	return c
}

// Rank converts mixed-radix coordinates back to a linear NPU rank.
func (t *Topology) Rank(coord []int) int {
	rank, stride := 0, 1
	for i, d := range t.Dims {
		rank += coord[i] * stride
		stride *= d.Size
	}
	return rank
}

// DimStride returns the rank distance between neighbours along dim (0-based).
func (t *Topology) DimStride(dim int) int {
	stride := 1
	for i := 0; i < dim; i++ {
		stride *= t.Dims[i].Size
	}
	return stride
}

// DimPos returns rank's position along dim (0-based) — the allocation-free
// point lookup matching Coord(rank)[dim].
func (t *Topology) DimPos(rank, dim int) int {
	for i := 0; i < dim; i++ {
		rank /= t.Dims[i].Size
	}
	return rank % t.Dims[dim].Size
}

// PosWalker iterates two ranks' mixed-radix positions dimension by
// dimension without allocating coordinate slices. It is the canonical
// digit-order encoding (Dim 1 least significant, matching Coord/Rank);
// hot paths that compare or route between ranks walk it instead of
// re-deriving the radix convention.
type PosWalker struct {
	t    *Topology
	a, b int
	dim  int
}

// WalkPositions returns a walker over the per-dimension positions of
// ranks a and b. The zero-cost value type lives on the caller's stack.
func (t *Topology) WalkPositions(a, b int) PosWalker {
	return PosWalker{t: t, a: a, b: b}
}

// Next yields the next dimension index and both ranks' positions in it,
// or ok=false when all dimensions are consumed.
func (w *PosWalker) Next() (dim, pa, pb int, ok bool) {
	if w.dim >= len(w.t.Dims) {
		return 0, 0, 0, false
	}
	k := w.t.Dims[w.dim].Size
	dim, pa, pb = w.dim, w.a%k, w.b%k
	w.a, w.b, w.dim = w.a/k, w.b/k, w.dim+1
	return dim, pa, pb, true
}

// Hops returns the total link traversals between two NPUs under
// dimension-ordered routing: per-dimension hop counts are summed.
func (t *Topology) Hops(src, dst int) int {
	a, b := t.Coord(src), t.Coord(dst)
	hops := 0
	for i, d := range t.Dims {
		hops += d.Hops(a[i], b[i])
	}
	return hops
}

// AggregateBandwidth returns the total effective per-NPU network bandwidth
// summed over all dimensions, the paper's "BW/NPU" figure of merit.
// Oversubscribed blocks contribute their derated bandwidth.
func (t *Topology) AggregateBandwidth() units.Bandwidth {
	var bw units.Bandwidth
	for _, d := range t.Dims {
		bw += d.EffectiveBandwidth()
	}
	return bw
}
