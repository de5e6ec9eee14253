package network

import (
	"repro/internal/units"
)

// LinkSet is one registered subset communicator instance (an MP or DP
// group, say): its member NPUs plus, per dimension, a floor time and an
// ownership flag. While the set owns every member's link of a dimension,
// its floor stands in for those links' times, so a phase on it reads and
// writes one value instead of one per member.
//
// Each link records its owner: the set that last reserved it in a phase, or
// none. A link's free time is the latest of the dimension floor, its own
// entry and its owner's floor. owns[d] holds exactly when every member's
// dimension-d link still names this set as owner; another set's phase or a
// per-link write on any of them clears it. While it holds, the set's floor
// is the latest of those links' times.
type LinkSet struct {
	id      int32 // 1-based index into the backend's sets
	members []int
	floor   []units.Time
	owns    []bool
}

// Members returns the set's member ranks. The slice is shared; callers
// must not modify it.
func (s *LinkSet) Members() []int { return s.members }

// NewLinkSet registers a subset communicator instance over the given member
// ranks and returns its link set. The set keeps members (which must not
// change afterwards, nor repeat a rank). Sets live as long as the backend;
// register one per instance, not per collective.
func (b *Backend) NewLinkSet(members []int) *LinkSet {
	s := &LinkSet{
		id:      int32(len(b.sets) + 1),
		members: members,
		floor:   make([]units.Time, b.dims),
		owns:    make([]bool, b.dims),
	}
	b.sets = append(b.sets, s)
	return s
}

// linkTime is link i's free time on dimension dim, short of the dimension
// floor: its own entry or its owner's floor, whichever is later.
func (b *Backend) linkTime(i, dim int) units.Time {
	t := b.linkFree[i]
	if o := b.linkOwner[i]; o != 0 {
		if f := b.sets[o-1].floor[dim]; f > t {
			t = f
		}
	}
	return t
}

// release hands link i of dimension dim back to per-link accounting before
// a per-link write: its owner's floor folds into the link's own entry, and
// the owner no longer owns all its dimension-dim links. O(1).
func (b *Backend) release(i, dim int) {
	if o := b.linkOwner[i]; o != 0 {
		b.linkFree[i] = b.linkTime(i, dim)
		b.sets[o-1].owns[dim] = false
		b.linkOwner[i] = 0
	}
}

// PhaseAvailability returns the earliest time a bulk-synchronous phase over
// the link set's dim links could begin: the latest of "now" and every
// member's link-free time. Collective phases are gated by their slowest
// member, mirroring synchronous training semantics. While the set owns its
// members' links the answer is its floor, in O(1); otherwise the members
// are walked once.
func (b *Backend) PhaseAvailability(s *LinkSet, dim int) units.Time {
	t := b.eng.Now()
	if f := b.dimFloor[dim]; f > t {
		t = f
	}
	if s.owns[dim] {
		if f := s.floor[dim]; f > t {
			t = f
		}
		return t
	}
	if b.linkFree == nil {
		return t // no per-link backlog and no set floors anywhere
	}
	for _, m := range s.members {
		if f := b.linkTime(b.linkIdx(m, dim), dim); f > t {
			t = f
		}
	}
	return t
}

// PhaseAvailabilityAll is PhaseAvailability for a whole-machine phase,
// without needing a link set. Always O(1).
func (b *Backend) PhaseAvailabilityAll(dim int) units.Time {
	t := b.eng.Now()
	if f := b.dimFloor[dim]; f > t {
		t = f
	}
	if m := b.dimMaxLink[dim]; m > t {
		t = m
	}
	return t
}

// ReservePhase reserves every member's dimension link for the serialization
// of perNPUTraffic bytes (the member's sent+received byte count for the
// phase — both directions serialize on the shared per-dimension link). It
// returns the phase's start and serialization-end times, and counts
// perNPUTraffic per member in the dimension's traffic total.
//
// With a flow controller attached, the phase is one flow on the dimension:
// its serialization is stretched by the cross-job contention factor at
// reservation time and, when the controller tracks the flow, its end is
// reported back through a typed event.
//
// When the set owns its members' dim links the phase costs O(1). Otherwise
// it walks the members once, reading each link's time and claiming it: the
// link's previous owner loses its ownership of the dimension. Either way the
// phase end becomes the set's floor.
func (b *Backend) ReservePhase(s *LinkSet, dim int, perNPUTraffic units.ByteSize) (start, end units.Time) {
	dur, tracked := b.phaseDur(dim, perNPUTraffic)
	start = b.eng.Now()
	if f := b.dimFloor[dim]; f > start {
		start = f
	}
	if s.owns[dim] {
		if f := s.floor[dim]; f > start {
			start = f
		}
	} else {
		b.ensureLinks()
		for _, m := range s.members {
			i := b.linkIdx(m, dim)
			if f := b.linkTime(i, dim); f > start {
				start = f
			}
			if o := b.linkOwner[i]; o != 0 {
				b.sets[o-1].owns[dim] = false
			}
			b.linkOwner[i] = s.id
		}
		s.owns[dim] = true
	}
	end = start + dur
	if tracked {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	s.floor[dim] = end
	if end > b.dimMaxLink[dim] {
		b.dimMaxLink[dim] = end
	}
	b.stats.Traffic[dim] += units.ByteSize(len(s.members)) * perNPUTraffic
	return start, end
}

// ReservePhaseAll reserves every NPU's dimension link for a whole-machine
// phase in O(1): the phase start is the dimension's aggregate availability
// and its end becomes the new dimension floor. The result is byte-identical
// to ReservePhase over a set of every NPU.
func (b *Backend) ReservePhaseAll(dim int, perNPUTraffic units.ByteSize) (start, end units.Time) {
	dur, tracked := b.phaseDur(dim, perNPUTraffic)
	start = b.PhaseAvailabilityAll(dim)
	end = start + dur
	if tracked {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	b.dimFloor[dim] = end
	b.stats.Traffic[dim] += units.ByteSize(b.npus) * perNPUTraffic
	return start, end
}

// phaseDur is a phase's serialization time, reporting the phase to the flow
// controller (when attached) as one flow on the dimension; tracked reports
// whether the controller is owed the flow's end.
func (b *Backend) phaseDur(dim int, perNPUTraffic units.ByteSize) (dur units.Time, tracked bool) {
	factor := 1.0
	if b.fc != nil {
		factor, tracked = b.fc.FlowStarted(dim)
	}
	return b.transferTime(dim, perNPUTraffic, factor), tracked
}
