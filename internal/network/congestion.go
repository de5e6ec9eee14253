package network

import (
	"repro/internal/units"
)

// First-order congestion modeling — the paper's stated future work
// (Section IV-C, footnote 5: "Implementing first-order congestion modeling
// into the analytical backend is our future work"). When enabled, messages
// charge every NPU link they transit, not just the endpoints, so multi-hop
// point-to-point traffic (e.g. strided pipeline stages or non-neighbour
// sends) contends with traffic at intermediate NPUs. The default remains
// endpoint-only charging, which is exact for the congestion-free
// topology-aware collectives the paper targets.
//
// Which positions a message transits is a dimension-model decision
// (TransitPositions): rings charge the shortest wrap path, meshes the
// straight line, tori the dimension-ordered per-axis rings; switch and
// fully-connected blocks have no NPU transit path (fabric hops are folded
// into the hop latency) and keep endpoint charging.

// SetTransitCharging enables or disables first-order transit congestion.
func (b *Backend) SetTransitCharging(on bool) { b.chargeTransit = on }

// TransitCharging reports the current mode.
func (b *Backend) TransitCharging() bool { return b.chargeTransit }

// reserveTransit charges the serialization time to every node's dimension
// link along the model's transit path from src to dst (inclusive),
// returning (src egress end, latest charged end). Blocks without a transit
// path fall back to endpoint charging. factor (>= 1) is the cross-backend
// fair-sharing contention multiplier.
func (b *Backend) reserveTransit(src, dst, dim int, size units.ByteSize, factor float64) (units.Time, units.Time) {
	d := b.top.Dims[dim]
	stride := b.top.DimStride(dim)
	srcPos := b.top.DimPos(src, dim)
	dstPos := b.top.DimPos(dst, dim)
	path := d.Kind.TransitPositions(srcPos, dstPos, d.Size)
	if len(path) == 0 {
		return b.reserve(src, dst, dim, size, factor)
	}
	dur := b.transferTime(dim, size, factor)
	b.ensureLinks()
	now := b.eng.Now()
	if f := b.dimFloor[dim]; f > now {
		now = f // the dimension floor lower-bounds every link of the dim
	}
	base := src - srcPos*stride

	var srcEnd, ready units.Time
	for h, pos := range path {
		li := b.linkIdx(base+pos*stride, dim)
		b.release(li, dim)
		start := b.linkFree[li]
		if start < now {
			start = now
		}
		end := start + dur
		b.linkFree[li] = end
		if h == 0 {
			srcEnd = end
		}
		if end > ready {
			ready = end
		}
	}
	if ready > b.dimMaxLink[dim] {
		b.dimMaxLink[dim] = ready
	}
	return srcEnd, ready
}
