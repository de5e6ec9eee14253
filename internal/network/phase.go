package network

import (
	"repro/internal/units"
)

// LinkSet is one registered communicator instance: the whole machine, or a
// subset such as an MP or DP group. It holds its member NPUs plus, per
// dimension, a floor time and an ownership flag. While the set owns every
// member's link of a dimension, its floor stands in for those links' times,
// so a phase on it reads and writes one value instead of one per member.
//
// Each link records its owner: the set that last reserved it in a phase, or
// the machine set, which owns every link at first and takes back each link
// a per-link write releases. A link's free time is the later of its own
// entry and its owner's floor. owns[d] holds only while every member's
// dimension-d link names this set as owner and has no time of its own past
// the set's floor; another set's phase or a per-link write on any of them
// clears it. While it holds, the set's floor is the latest of those links'
// times.
type LinkSet struct {
	id int32 // index into the backend's sets; 0 is the machine set
	n  int   // member count
	// ranks is how many ranks a phase's traffic counts for: n, or n times
	// the weight each member stands for (see NewWeightedLinkSet).
	ranks int
	// members is nil for the machine set until something walks it.
	members []int
	floor   []units.Time
	owns    []bool
}

// Members returns the set's member ranks; the machine set lists every NPU
// in ascending order. The slice is shared; callers must not modify it.
func (s *LinkSet) Members() []int {
	if s.members == nil {
		s.members = make([]int, s.n)
		for i := range s.members {
			s.members[i] = i
		}
	}
	return s.members
}

// addSet registers a link set over n members; members may be nil only for
// the machine set.
func (b *Backend) addSet(members []int, n int) *LinkSet {
	s := &LinkSet{
		id:      int32(len(b.sets)),
		n:       n,
		ranks:   n,
		members: members,
		floor:   make([]units.Time, b.dims),
		owns:    make([]bool, b.dims),
	}
	b.sets = append(b.sets, s)
	return s
}

// Machine returns the machine link set, whose members are every NPU. A
// whole-machine phase reserves it; while it owns a dimension, which it does
// from the start, a phase on it touches no per-link state at all.
func (b *Backend) Machine() *LinkSet { return b.sets[0] }

// NewLinkSet registers a communicator instance over the given member ranks
// and returns its link set. The set keeps members (which must not change
// afterwards, nor repeat a rank). Members naming every NPU return the
// machine set. Sets live as long as the backend; register one per
// instance, not per collective.
func (b *Backend) NewLinkSet(members []int) *LinkSet { return b.NewWeightedLinkSet(members, 1) }

// NewWeightedLinkSet is NewLinkSet for members that each stand for weight
// ranks, as a folded simulation's simulated ranks stand for their blocks:
// the set's phases reserve only the members' links but count their
// traffic for len(members) × weight ranks.
func (b *Backend) NewWeightedLinkSet(members []int, weight int) *LinkSet {
	if len(members) == b.npus {
		return b.Machine()
	}
	s := b.addSet(members, len(members))
	s.ranks *= weight
	return s
}

// linkTime is link i's free time on dimension dim: its own entry or its
// owner's floor, whichever is later.
func (b *Backend) linkTime(i, dim int) units.Time {
	return max(b.linkFree[i], b.sets[b.linkOwner[i]].floor[dim])
}

// release hands link i of dimension dim to per-link accounting before a
// per-link write: its owner's floor folds into the link's own entry, the
// owner no longer owns all its dimension-dim links, and the link returns
// to the machine set. No link's time is below the machine's floor, so the
// machine adds nothing to it. O(1).
func (b *Backend) release(i, dim int) {
	b.linkFree[i] = b.linkTime(i, dim)
	b.sets[b.linkOwner[i]].owns[dim] = false
	b.linkOwner[i] = 0
}

// PhaseAvailability returns the earliest time a bulk-synchronous phase over
// the link set's dim links could begin: the latest of "now" and every
// member's link-free time. Collective phases are gated by their slowest
// member, mirroring synchronous training semantics. While the set, or the
// machine set, owns the dimension the answer is its floor, in O(1);
// otherwise the members are walked once.
func (b *Backend) PhaseAvailability(s *LinkSet, dim int) units.Time {
	t := b.eng.Now()
	if b.Machine().owns[dim] {
		s = b.Machine() // every link of the dimension is the machine's
	}
	if s.owns[dim] {
		return max(t, s.floor[dim])
	}
	for _, m := range s.Members() {
		t = max(t, b.linkTime(b.linkIdx(m, dim), dim))
	}
	return t
}

// ReservePhase reserves every member's dimension link for the serialization
// of perNPUTraffic bytes (the member's sent+received byte count for the
// phase — both directions serialize on the shared per-dimension link). It
// returns the phase's start and serialization-end times, and counts
// perNPUTraffic per member, times the set's weight, in the dimension's
// traffic total.
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
	if s.owns[dim] {
		start = max(start, s.floor[dim])
	} else {
		b.ensureLinks()
		for _, m := range s.Members() {
			i := b.linkIdx(m, dim)
			start = max(start, b.linkTime(i, dim))
			b.sets[b.linkOwner[i]].owns[dim] = false
			b.linkOwner[i] = s.id
		}
		s.owns[dim] = true
	}
	end = start + dur
	if tracked {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	s.floor[dim] = end
	b.stats.Traffic[dim] += units.ByteSize(s.ranks) * perNPUTraffic
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
