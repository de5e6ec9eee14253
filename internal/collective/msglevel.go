package collective

import (
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/units"
)

// This file builds a collective's message-level schedule, every
// point-to-point transfer of the blocks' topology-aware algorithms in
// bulk-synchronous steps, and plays it on the analytical network; garnet,
// the cycle-level backend, plays the same steps. The per-step schedules
// come from the dimension models' PhaseSchedule hook (Table I: Ring on Ring
// dims, Direct on FullyConnected dims, Halving-Doubling on Switch dims,
// plus the embedded-ring Mesh and per-axis-ring Torus2D schedules), so this
// file contains no block-specific logic.
//
// The chunk-phase model in collective.go is the production path (it scales
// to thousands of NPUs); the message-level path is a test oracle that checks
// the aggregate model reproduces the per-message algorithms exactly.

// MessageSchedule returns op's message-level schedule over group g: the
// chunk engine's fixed phase order (fixedPlan), each phase running its
// block's PhaseSchedule on every instance of its span at once. All-to-All
// phases exchange D/k bytes between every ordered pair of an instance. The
// steps hold ranks. It refuses what Engine.Start refuses, and spans that
// CheckSpans rejects.
func MessageSchedule(top *topology.Topology, op Op, size units.ByteSize, g Group) ([]topology.Step, error) {
	d, err := startShard(op, size, g)
	if err != nil {
		return nil, err
	}
	if err := CheckSpans(top, g.Spans, g.Base); err != nil {
		return nil, err
	}
	members := g.Members(top)
	var steps []topology.Step
	for _, ph := range fixedPlan(op, len(g.Spans)) {
		sp := g.Spans[ph.span]
		var sched [][]topology.Xfer
		if ph.op == AllToAll {
			sched = topology.DirectSchedule(sp.K, d/units.ByteSize(sp.K))
		} else {
			sched = top.Dims[sp.Phys].Kind.PhaseSchedule(phaseKind(ph.op), sp.K, d)
		}
		var firsts []int // each instance's member 0: its digit on the span is 0
		for _, m := range members {
			if top.DimPos(m, sp.Phys)/sp.Stride%sp.K == 0 {
				firsts = append(firsts, m)
			}
		}
		stride := top.DimStride(sp.Phys) * sp.Stride
		for _, xs := range sched {
			out := make([]topology.Xfer, 0, len(firsts)*len(xs))
			for _, f := range firsts {
				for _, x := range xs {
					out = append(out, topology.Xfer{Src: f + x.Src*stride, Dst: f + x.Dst*stride, Bytes: x.Bytes})
				}
			}
			steps = append(steps, topology.Step{Dim: sp.Phys, Xfers: out})
		}
		d = phaseOutput(ph.op, d, sp.K)
	}
	return steps, nil
}

// RunMessageLevel plays steps on the analytical network, one transfer at a
// time through the backend, each step starting once every transfer of the
// one before has landed. done receives the completion time.
func RunMessageLevel(net *network.Backend, steps []topology.Step, done func(units.Time)) {
	var play func(i int)
	play = func(i int) {
		if i == len(steps) {
			done(net.Now())
			return
		}
		st := steps[i]
		if len(st.Xfers) == 0 {
			play(i + 1)
			return
		}
		bar := &barrier{remaining: len(st.Xfers), fn: func() { play(i + 1) }}
		for _, x := range st.Xfers {
			net.SendOnDim(x.Src, x.Dst, st.Dim, x.Bytes, nil, bar)
		}
	}
	play(0)
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
