package collective

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file executes the blocks' topology-aware collective algorithms at
// message granularity — every point-to-point transfer is issued through the
// network backend individually. The per-step schedules come from the
// dimension models' PhaseSchedule hook (Table I: Ring on Ring dims, Direct
// on FullyConnected dims, Halving-Doubling on Switch dims, plus the
// embedded-ring Mesh and per-axis-ring Torus2D schedules), so this executor
// contains no block-specific logic.
//
// The chunk-phase model in collective.go is the production path (it scales
// to thousands of NPUs); the message-level path is a test oracle that checks
// the aggregate model reproduces the per-message algorithms exactly.

// RunMessageLevel executes a single-dimension collective at message
// granularity over the group formed by varying dimension dim from base.
// It returns the completion time via the done callback. Only single-dim
// groups are supported; multi-dim collectives compose these phases.
func RunMessageLevel(net *network.Backend, op Op, size units.ByteSize, dim, base int, done func(units.Time)) error {
	top := net.Topology()
	if dim < 0 || dim >= top.NumDims() {
		return fmt.Errorf("collective: dim %d out of range", dim)
	}
	members := top.DimGroup(base, dim)
	k := len(members)
	if k < 2 {
		return fmt.Errorf("collective: message-level group too small")
	}
	switch op {
	case AllGather:
		shard := size / units.ByteSize(k)
		runMsgPhase(net, top, members, dim, AllGather, shard, done)
	case ReduceScatter:
		runMsgPhase(net, top, members, dim, ReduceScatter, size, done)
	case AllReduce:
		runMsgPhase(net, top, members, dim, ReduceScatter, size, func(units.Time) {
			runMsgPhase(net, top, members, dim, AllGather, size/units.ByteSize(k), done)
		})
	case AllToAll:
		runMsgAllToAll(net, top, members, dim, size, done)
	default:
		return fmt.Errorf("collective: unsupported message-level op %v", op)
	}
	return nil
}

// runMsgPhase executes the dimension model's message-level schedule:
// bulk-synchronous steps of point-to-point transfers, each step barriered
// on all of its deliveries.
func runMsgPhase(net *network.Backend, top *topology.Topology, members []int, dim int, op Op, d units.ByteSize, done func(units.Time)) {
	sched := top.Dims[dim].Kind.PhaseSchedule(phaseKind(op), len(members), d)
	var step func(s int)
	step = func(s int) {
		if s >= len(sched) {
			done(net.Now())
			return
		}
		xfers := sched[s]
		if len(xfers) == 0 {
			step(s + 1)
			return
		}
		bar := &barrier{remaining: len(xfers), fn: func() { step(s + 1) }}
		for _, x := range xfers {
			net.SendOnDim(members[x.Src], members[x.Dst], dim, x.Bytes, nil, bar)
		}
	}
	step(0)
}

// barrier is the delivery event of every transfer of a step; it invokes fn
// once the last of them has landed.
type barrier struct {
	remaining int
	fn        func()
}

// Act implements timeline.Actor.
func (b *barrier) Act() {
	b.remaining--
	if b.remaining == 0 {
		b.fn()
	}
}

// runMsgAllToAll exchanges size/k bytes between every ordered pair; the
// pattern is block-agnostic, so no model schedule is involved.
func runMsgAllToAll(net *network.Backend, top *topology.Topology, members []int, dim int, size units.ByteSize, done func(units.Time)) {
	k := len(members)
	per := size / units.ByteSize(k)
	bar := &barrier{remaining: k * (k - 1), fn: func() { done(net.Now()) }}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				net.SendOnDim(members[i], members[j], dim, per, nil, bar)
			}
		}
	}
}
