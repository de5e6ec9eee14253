package collective

import (
	"math"

	"repro/internal/topology"
	"repro/internal/units"
)

// Estimate is the closed-form counterpart of the event-driven engine: it
// predicts a collective's runtime on an otherwise-idle network without
// simulating chunk events. It exists for fast first-order sweeps and as an
// independent cross-check of the event-driven model (the two are asserted
// to agree in tests).
//
// Under chunk pipelining, each span acts as a pipeline stage whose total
// busy time is traffic / BW of its physical dimension. With C chunks the
// makespan is the bottleneck stage's busy time plus the ramp through the
// other stages at single-chunk granularity, plus per-phase latency:
//
//	T ≈ max_s busy_s + Σ_{s≠bottleneck} busy_s/C + Σ_phases latency
//
// For the Themis policy the per-dimension loads are balanced, so the bound
// becomes total traffic over aggregate bandwidth (floored by the least
// load any legal ordering must still place on each dimension).
//
// All per-span costs come from the dimension-model hooks (phase traffic,
// phase latency, effective bandwidth), so the estimator prices every
// registered block — including derated oversubscribed switches — with the
// same arithmetic the engine executes.
//
// Traffic and time saturate instead of wrapping: a phase whose traffic
// overflows an int64 byte count counts math.MaxInt64 bytes, sums stop at
// the largest value, and an estimate past the largest simulated time
// reads units.MaxTime.
func Estimate(top *topology.Topology, op Op, size units.ByteSize, g Group, policy Policy, chunks int) units.Time {
	if chunks <= 0 {
		chunks = defaultChunks
	}
	n := g.Size()
	shard := InitialShard(op, size, n)

	var latency units.Time
	for _, s := range g.Spans {
		dim := top.Dims[s.Phys]
		latency = satAdd(latency, dim.PhaseLatency(s.K))
		if op == AllReduce {
			latency = satAdd(latency, dim.PhaseLatency(s.K)) // RS and AG each traverse the span
		}
	}

	busyPerSpan := spanBusyTimes(top, op, size, g)

	if policy == Themis {
		var totalSec float64
		var aggBW units.Bandwidth
		for _, s := range g.Spans {
			aggBW += top.Dims[s.Phys].EffectiveBandwidth()
		}
		// Total traffic time re-expressed against aggregate bandwidth:
		// traffic bytes are order-invariant, so baseline per-span traffic
		// serves for the total.
		var totalBytes float64
		traffic := TrafficPerDim(top, op, size, g)
		for _, b := range traffic {
			totalBytes += float64(b)
		}
		if aggBW > 0 {
			totalSec = totalBytes / float64(aggBW)
		}
		t := units.MaxTime
		if totalSec*float64(units.Second) < float64(units.MaxTime) {
			t = units.FromSeconds(totalSec)
		}
		if floor := minMandatoryBusy(top, op, shard, g); floor > t {
			t = floor
		}
		return satAdd(t, latency)
	}

	// Baseline: bottleneck + ramp.
	var bottleneck, ramp units.Time
	for _, b := range busyPerSpan {
		if b > bottleneck {
			bottleneck = b
		}
	}
	for _, b := range busyPerSpan {
		if b != bottleneck {
			ramp = satAdd(ramp, b/units.Time(chunks))
		}
	}
	return satAdd(satAdd(bottleneck, ramp), latency)
}

// satAdd returns a + b for non-negative a and b, or the type's largest
// value where the sum would overflow.
func satAdd[T ~int64](a, b T) T {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// phaseTraffic is dim.PhaseTraffic, or math.MaxInt64 bytes where the
// traffic 2·d·(k−1) of a phase over k members would overflow.
func phaseTraffic(dim topology.Dim, op topology.PhaseKind, d units.ByteSize, k int) units.ByteSize {
	if k > 1 && d > math.MaxInt64/units.ByteSize(2*(k-1)) {
		return math.MaxInt64
	}
	return dim.PhaseTraffic(op, d, k)
}

// spanBusyTimes returns each span's serialization time under the baseline
// fixed ordering, at the dimensions' effective bandwidths.
func spanBusyTimes(top *topology.Topology, op Op, size units.ByteSize, g Group) []units.Time {
	traffic := spanTraffic(top, op, size, g)
	out := make([]units.Time, len(g.Spans))
	for i, s := range g.Spans {
		out[i] = top.Dims[s.Phys].TransferTime(traffic[i])
	}
	return out
}

// spanTraffic returns the per-NPU sent+received bytes on each span under
// the baseline ordering (Reduce-Scatter ascending, All-Gather descending),
// as priced by each span's dimension model.
func spanTraffic(top *topology.Topology, op Op, size units.ByteSize, g Group) []units.ByteSize {
	n := g.Size()
	out := make([]units.ByteSize, len(g.Spans))
	dim := func(i int) topology.Dim { return top.Dims[g.Spans[i].Phys] }
	switch op {
	case ReduceScatter:
		d := size
		for i, s := range g.Spans {
			out[i] = phaseTraffic(dim(i), topology.PhaseReduceScatter, d, s.K)
			d /= units.ByteSize(s.K)
		}
	case AllGather:
		d := InitialShard(AllGather, size, n)
		for i := len(g.Spans) - 1; i >= 0; i-- {
			out[i] = phaseTraffic(dim(i), topology.PhaseAllGather, d, g.Spans[i].K)
			d *= units.ByteSize(g.Spans[i].K)
		}
	case AllReduce:
		d := size
		after := make([]units.ByteSize, len(g.Spans))
		for i, s := range g.Spans {
			out[i] = phaseTraffic(dim(i), topology.PhaseReduceScatter, d, s.K)
			d /= units.ByteSize(s.K)
			after[i] = d
		}
		for i := len(g.Spans) - 1; i >= 0; i-- {
			out[i] = satAdd(out[i], phaseTraffic(dim(i), topology.PhaseAllGather, after[i], g.Spans[i].K))
		}
	case AllToAll:
		for i, s := range g.Spans {
			out[i] = phaseTraffic(dim(i), topology.PhaseAllToAll, size, s.K)
		}
	}
	return out
}

// TrafficPerDim returns the per-NPU sent+received bytes accumulated on each
// physical topology dimension for the collective under baseline ordering —
// Table IV's "message size per dimension". The slice is indexed by physical
// dimension.
func TrafficPerDim(top *topology.Topology, op Op, size units.ByteSize, g Group) []units.ByteSize {
	perSpan := spanTraffic(top, op, size, g)
	out := make([]units.ByteSize, top.NumDims())
	for i, s := range g.Spans {
		out[s.Phys] = satAdd(out[s.Phys], perSpan[i])
	}
	return out
}

// minMandatoryBusy returns the largest per-span busy time achievable under
// the most favourable per-chunk ordering — every phase on span s run at the
// smallest D any legal ordering allows. It lower-bounds what Themis
// balancing can reach.
func minMandatoryBusy(top *topology.Topology, op Op, shard units.ByteSize, g Group) units.Time {
	var worst units.Time
	for i, s := range g.Spans {
		k := s.K
		dim := top.Dims[s.Phys]
		// Smallest reduce-scatter input for this span: run it last, after
		// every other span has divided D down.
		rsMin := shard
		for j, o := range g.Spans {
			if j != i {
				rsMin /= units.ByteSize(o.K)
			}
		}
		var traffic units.ByteSize
		switch op {
		case ReduceScatter:
			traffic = phaseTraffic(dim, topology.PhaseReduceScatter, rsMin, k)
		case AllToAll:
			// All-to-all phases keep D constant; no ordering freedom.
			traffic = phaseTraffic(dim, topology.PhaseAllToAll, shard, k)
		case AllGather:
			// Smallest all-gather input: run this span first, before growth.
			traffic = phaseTraffic(dim, topology.PhaseAllGather, shard, k)
		case AllReduce:
			// RS at its minimum plus AG at the post-RS minimum (shard/N).
			traffic = satAdd(phaseTraffic(dim, topology.PhaseReduceScatter, rsMin, k),
				phaseTraffic(dim, topology.PhaseAllGather, rsMin/units.ByteSize(k), k))
		}
		if t := dim.TransferTime(traffic); t > worst {
			worst = t
		}
	}
	return worst
}
