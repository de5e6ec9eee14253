package network

import (
	"repro/internal/units"
)

// Ledger is a snapshot of the dimension-aggregate state a whole-machine
// collective reads and writes: the per-dimension link floors and traffic
// totals. The collective engine's memoization layer captures Ledgers to
// validate that a recorded run was pure and to fast-forward (or roll back)
// a replayed one.
type Ledger struct {
	Floor   []units.Time
	Traffic []units.ByteSize
}

// SnapshotLedger copies the current aggregate state into dst, reusing its
// backing arrays when possible.
func (b *Backend) SnapshotLedger(dst *Ledger) {
	dst.Floor = append(dst.Floor[:0], b.dimFloor...)
	dst.Traffic = append(dst.Traffic[:0], b.stats.Traffic...)
}

// RestoreLedger writes a snapshot back, undoing every aggregate mutation
// made since it was taken. Only sound when nothing else touched the backend
// in between — the memoization layer guarantees that by cancelling a replay
// at the first observation of backend state.
func (b *Backend) RestoreLedger(src *Ledger) {
	copy(b.dimFloor, src.Floor)
	copy(b.stats.Traffic, src.Traffic)
}

// ApplyLedgerDeltas fast-forwards the aggregates by a recorded run's net
// effect: dimensions the run touched get their floor set to now+floorDelta
// (untouched dimensions are marked with a negative delta), and the traffic
// totals advance by the recorded amounts.
func (b *Backend) ApplyLedgerDeltas(now units.Time, floorDelta []units.Time, traffic []units.ByteSize) {
	for d := range floorDelta {
		if fd := floorDelta[d]; fd >= 0 {
			b.dimFloor[d] = now + fd
		}
		b.stats.Traffic[d] += traffic[d]
	}
}

// QuietDims reports whether every dimension aggregate is at or before the
// current instant, no flow controller is attached, and no scenario has a
// bandwidth scale in effect — the backend-side half of the "a collective
// started now is a pure function of its shape" condition the memoization
// layer requires. A degraded dimension must disqualify memoization even
// when its links are idle: a run recorded (or replayed) under a clean
// fabric is not valid under a scaled one, and vice versa.
func (b *Backend) QuietDims() bool {
	if b.fc != nil || b.scaledDims != 0 {
		return false
	}
	now := b.eng.Now()
	for d := 0; d < b.dims; d++ {
		if b.dimFloor[d] > now || b.dimMaxLink[d] > now {
			return false
		}
	}
	return true
}

// PendingEvents reports the driving engine's queued event count.
func (b *Backend) PendingEvents() int { return b.eng.Pending() }

// EventsFired reports the driving engine's executed event count.
func (b *Backend) EventsFired() uint64 { return b.eng.Fired() }

// CreditEvents forwards a fast-forward event credit (or its revocation) to
// the driving engine.
func (b *Backend) CreditEvents(n int64) { b.eng.CreditFired(n) }

// AddActivityHook registers fn to be invoked before any operation that
// reads or writes link or ledger state (phase reservations, point-to-point
// sends, scenario mutations, stats reads) and returns an id for
// RemoveActivityHook. The memoization layer installs a hook while a
// replayed collective is in flight so the first observer cancels the
// fast-forward and falls back to live simulation. Hooks form a registry —
// not a single slot — so several collective engines sharing one backend
// (cluster jobs) cannot clobber each other's armed hooks. A hook may remove
// itself (or others) while running and must tolerate being invoked again
// after its trigger condition cleared; an empty registry — the default —
// costs one predictable branch on the hot path.
func (b *Backend) AddActivityHook(fn func()) int {
	b.hookSeq++
	b.hooks = append(b.hooks, activityHook{id: b.hookSeq, fn: fn})
	return b.hookSeq
}

// RemoveActivityHook deregisters a hook by the id AddActivityHook returned.
// Removing an id twice (or an unknown id) is a no-op, so disarm paths can
// be unconditional.
func (b *Backend) RemoveActivityHook(id int) {
	for i := range b.hooks {
		if b.hooks[i].id == id {
			b.hooks = append(b.hooks[:i], b.hooks[i+1:]...)
			return
		}
	}
}

func (b *Backend) touchActivity() {
	// Walk by position, re-checking the occupant's id after each call: a
	// hook that removes itself (the common rollback case) shifts the slice
	// left, and the next hook is then at the same position.
	for i := 0; i < len(b.hooks); {
		h := b.hooks[i]
		h.fn()
		if i < len(b.hooks) && b.hooks[i].id == h.id {
			i++
		}
	}
}

// SetScheduleWatch forwards to the driving engine's one-shot schedule
// watch; see timeline.Engine.SetScheduleWatch. The memoization layer arms
// it alongside an activity hook so foreign events scheduled into a
// replay's window — due later than the replay's start — cancel the replay
// at schedule time, while the clock still stands at the start instant.
func (b *Backend) SetScheduleWatch(limit units.Time, fn func()) {
	b.eng.SetScheduleWatch(limit, fn)
}
