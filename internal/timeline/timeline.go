// Package timeline implements the discrete-event simulation core shared by
// every layer of the simulator: a simulation clock and a deterministic
// event queue.
//
// Events scheduled for the same instant fire in schedule (FIFO) order, which
// makes simulations byte-for-byte reproducible regardless of map iteration
// order or goroutine scheduling (the engine is single-threaded by design —
// discrete-event simulators gain nothing from parallelism at this scale and
// lose determinism).
//
// The queue is built for throughput on two shapes: the bursts large
// machines produce, where thousands of NPUs advance in lockstep and hundreds
// of events fall due at each instant, and the scattered timelines of many
// co-scheduled jobs, where a thousand distinct instants are pending at once.
// Events live by value in a slot arena recycled through a free list. Events
// due at one instant are chained into a run, so a burst costs one queue push
// and one pop, not one per event. A small direct-mapped table from instant
// to the latest run created for it finds the run to append to without a
// map. Runs wait in a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990):
// 64 FIFO buckets keyed by the highest bit in which a run's instant differs
// from the last instant popped, each tracking its earliest instant. A push
// is O(1). A pop that finds no run due empties the lowest non-empty bucket
// into lower ones around that bucket's earliest instant, so a run moves
// down a few buckets (under four on average on a 128-job cluster) before it
// fires. Zero-delay events bypass the buckets entirely through a
// same-instant FIFO. Nothing is boxed and steady-state scheduling never
// allocates; model layers that schedule millions of events can avoid
// closure allocations too by implementing Actor and using ScheduleActor.
//
// Simulated time saturates: an event that would fall at or beyond
// units.MaxTime is queued there, and Run and RunUntil return an error
// rather than fire it.
package timeline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

// Callback is an event body, invoked at its scheduled simulated time.
type Callback func()

// Actor is a typed event body: an object whose Act method runs at the
// scheduled time. Scheduling an existing pointer through ScheduleActor
// stores the interface pair directly in the event slot, so hot model code
// pays no closure allocation per event.
type Actor interface {
	Act()
}

// event is a value-typed arena slot. Exactly one of fn/actor is set.
type event struct {
	fn    Callback
	actor Actor
	next  int32 // next event of the same run; -1 ends it (and every zq entry)
}

// run is a queue entry: the events due at one instant, chained through
// event.next in schedule order. Runs live in an arena recycled through a
// free list; link chains a run to the next one in its bucket, or to the
// next free run.
type run struct {
	at   units.Time
	head int32
	link int32
}

// bucket is a FIFO of runs linked through run.link, with the earliest
// instant among them.
type bucket struct {
	head, tail int32
	min        units.Time
}

// runTail is a tails entry: the last event of the latest run created for
// instant at.
type runTail struct {
	at   units.Time
	tail int32
}

// tailBits sizes the direct-mapped run table. A GPT-3 iteration on 4096
// NPUs keeps at most 32 instants pending at once: 1024 entries coalesce it
// into exactly one run per distinct instant, while 256 let two hot
// instants collide and cost 40 times the runs. Each engine carries the
// table (16 KB), and sweeps build hundreds of engines, so it is no larger.
const tailBits = 10

// tailIndex hashes an instant to its run-table entry (Fibonacci hashing).
func tailIndex(at units.Time) uint64 {
	return uint64(at) * 0x9e3779b97f4a7c15 >> (64 - tailBits)
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now units.Time

	// slots is the event arena; free holds recycled slot indices. Events
	// are addressed by index so runs and the FIFO chain 4-byte handles, not
	// event values, and steady-state scheduling never allocates.
	slots []event
	free  []int32

	// runs is the run arena; freeRun heads its free list (-1 when empty).
	// buckets[k] (below) queues the runs whose instant differs from last
	// first at bit k-1, so bucket 0 holds the runs due at last itself; bit
	// k of nonEmpty is set while buckets[k] holds a run. Instants are
	// non-negative, so 64 buckets cover them. last moves only when a
	// bucket is split, to the instant whose run pops next, so last <= now
	// <= every queued instant, and runs of one instant share a bucket in
	// the order they were queued.
	runs     []run
	freeRun  int32
	nonEmpty uint64
	last     units.Time

	// cur is the next event of the run being drained (-1 when none): a
	// popped run's events are due now and were scheduled before the clock
	// got here, so they precede every later run and every zq entry.
	cur int32

	// zq is the zero-delay fast path: a FIFO of slots due exactly at the
	// current instant. Every entry was scheduled while the clock already
	// stood at its timestamp, so entries are in schedule order and all
	// queued runs due now precede all of them (they were scheduled earlier).
	zq     []int32
	zqHead int

	pending int // events queued in runs and zq
	fired   uint64
	budget  uint64 // max events per Run/RunUntil; 0 = unlimited

	// tails maps hash(at) to the latest run created for instant at. An
	// entry with at > now always names a run still queued (popping a run
	// moves the clock to its instant), so appending to it is safe;
	// appending only to the latest run keeps one instant's runs in schedule
	// order; and a collision merely opens a new run. buckets and tails are
	// the last fields because they hold no pointers: the collector never
	// scans them, and the hot scalars above share cache lines.
	buckets [64]bucket
	tails   [1 << tailBits]runTail
}

// New returns an empty engine at simulated time zero.
func New() *Engine {
	return &Engine{cur: -1, freeRun: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Fired reports how many events have executed since construction.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventBudget caps the number of events a single Run or RunUntil may
// execute: a run that would need more returns an error after exactly n
// events. Zero means unlimited. This is a guard against accidental
// livelock in model code.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// allocSlot takes a slot from the free list (or grows the arena) and fills
// it. It returns the slot index; the caller enqueues it.
func (e *Engine) allocSlot(fn Callback, actor Actor) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, event{})
		idx = int32(len(e.slots) - 1)
	}
	e.slots[idx] = event{fn: fn, actor: actor, next: -1}
	return idx
}

func (e *Engine) enqueue(delay units.Time, fn Callback, actor Actor) {
	if delay < 0 {
		delay = 0
	}
	at := units.MaxTime // saturate rather than wrap past the end of time
	if delay < units.MaxTime-e.now {
		at = e.now + delay
	}
	idx := e.allocSlot(fn, actor)
	e.pending++
	if delay == 0 {
		// Same-instant events never enter the buckets: they fire after
		// everything already due now, in schedule order, which is exactly a
		// FIFO.
		e.zq = append(e.zq, idx)
		return
	}
	t := &e.tails[tailIndex(at)]
	if t.at == at {
		e.slots[t.tail].next = idx
		t.tail = idx
		return
	}
	e.push(at, idx)
	t.at, t.tail = at, idx
}

// Schedule enqueues fn to run after delay. A negative delay is an error in
// the model; it is clamped to zero so the event fires "now" rather than in
// the past, preserving the monotonic clock invariant.
func (e *Engine) Schedule(delay units.Time, fn Callback) {
	if fn == nil {
		panic("timeline: Schedule called with nil callback")
	}
	e.enqueue(delay, fn, nil)
}

// ScheduleAt enqueues fn at an absolute simulated time, which must not be
// in the past.
func (e *Engine) ScheduleAt(at units.Time, fn Callback) {
	if at < e.now {
		at = e.now
	}
	e.Schedule(at-e.now, fn)
}

// ScheduleActor enqueues a typed event to run after delay — the
// allocation-free equivalent of Schedule for hot model code.
func (e *Engine) ScheduleActor(delay units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActor called with nil actor")
	}
	e.enqueue(delay, nil, a)
}

// ScheduleActorAt enqueues a typed event at an absolute simulated time,
// which must not be in the past.
func (e *Engine) ScheduleActorAt(at units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActorAt called with nil actor")
	}
	if at < e.now {
		at = e.now
	}
	e.enqueue(at-e.now, nil, a)
}

// push queues a new run at instant at (> now) whose first event is slot
// head.
func (e *Engine) push(at units.Time, head int32) {
	i := e.freeRun
	if i >= 0 {
		e.freeRun = e.runs[i].link
		e.runs[i] = run{at: at, head: head}
	} else {
		i = int32(len(e.runs))
		e.runs = append(e.runs, run{at: at, head: head})
	}
	e.file(i, bits.Len64(uint64(at^e.last)))
}

// file appends run i to the tail of bucket k.
func (e *Engine) file(i int32, k int) {
	r := &e.runs[i]
	r.link = -1
	b := &e.buckets[k]
	if e.nonEmpty&(1<<k) == 0 {
		e.nonEmpty |= 1 << k
		b.head, b.min = i, r.at
	} else {
		e.runs[b.tail].link = i
		b.min = min(b.min, r.at)
	}
	b.tail = i
}

// split empties bucket k, the lowest non-empty one: its earliest instant
// becomes last and every run of the bucket is refiled around it. The runs
// land in lower buckets, all empty, in their old order, so bucket 0 then
// holds exactly the runs due at last, in the order they were queued.
func (e *Engine) split(k int) {
	last := e.buckets[k].min
	e.last = last
	e.nonEmpty &^= 1 << k
	for i := e.buckets[k].head; i >= 0; {
		next := e.runs[i].link
		e.file(i, bits.Len64(uint64(e.runs[i].at^last)))
		i = next
	}
}

// popDue removes the first run of bucket 0, which is due now, and returns
// its first event.
func (e *Engine) popDue() int32 {
	b := &e.buckets[0]
	i := b.head
	r := &e.runs[i]
	if r.link < 0 {
		e.nonEmpty &^= 1
	} else {
		b.head = r.link
	}
	r.link = e.freeRun
	e.freeRun = i
	return r.head
}

// peekAt returns the earliest pending timestamp. Valid only when Pending>0.
func (e *Engine) peekAt() units.Time {
	if e.cur >= 0 || e.zqHead < len(e.zq) {
		return e.now // the current run and zq are always due now
	}
	return e.buckets[bits.TrailingZeros64(e.nonEmpty)].min
}

// Step executes the single earliest event and returns true. It returns
// false if the queue is empty, or if the earliest event lies at
// units.MaxTime, past the end of representable simulated time; that event
// stays queued.
func (e *Engine) Step() bool {
	idx := e.cur
	switch {
	case idx >= 0:
	case e.nonEmpty&1 != 0:
		// Runs due at the current instant were scheduled before the clock
		// reached it, so they precede every same-instant FIFO entry.
		idx = e.popDue()
	case e.zqHead < len(e.zq):
		idx = e.zq[e.zqHead]
		e.zqHead++
		if e.zqHead == len(e.zq) {
			e.zq = e.zq[:0]
			e.zqHead = 0
		}
	case e.nonEmpty != 0:
		k := bits.TrailingZeros64(e.nonEmpty)
		at := e.buckets[k].min // the earliest queued instant
		if at < e.now {
			// Cannot happen: enqueue clamps to now and last <= now.
			panic(fmt.Sprintf("timeline: time ran backwards: %v -> %v", e.now, at))
		}
		if at == units.MaxTime {
			return false
		}
		e.split(k)
		e.now = at
		idx = e.popDue()
	default:
		return false
	}
	// Copy the body out and recycle the slot before firing: the callback
	// may schedule (growing the arena and invalidating slot pointers), and
	// freeing first lets it reuse this very slot. A zq entry's next is -1,
	// so advancing cur is right on every path.
	s := &e.slots[idx]
	fn, actor := s.fn, s.actor
	e.cur = s.next
	s.fn, s.actor = nil, nil // release references for the GC
	e.free = append(e.free, idx)
	e.pending--
	e.fired++
	if fn != nil {
		fn()
	} else {
		actor.Act()
	}
	return true
}

// budgetEnd returns the fired count at which a Run or RunUntil starting at
// fired must stop: budget events later, or never when budget is 0.
func budgetEnd(fired, budget uint64) uint64 {
	if budget == 0 {
		return math.MaxUint64
	}
	return fired + budget
}

func budgetError(budget uint64, now units.Time) error {
	return fmt.Errorf("timeline: event budget %d spent at t=%v with events still due (likely a scheduling livelock)", budget, now)
}

func overflowError(now units.Time) error {
	return fmt.Errorf("timeline: simulated time overflow after t=%v: events are due at or past %v, the largest representable instant", now, units.MaxTime)
}

// Run executes events until the queue drains. It returns the final
// simulated time, or an error if events were still due once the configured
// event budget was spent or if an event falls past the end of simulated
// time.
func (e *Engine) Run() (units.Time, error) {
	end := budgetEnd(e.fired, e.budget)
	for e.pending > 0 {
		if e.fired == end {
			return e.now, budgetError(e.budget, e.now)
		}
		if !e.Step() {
			return e.now, overflowError(e.now)
		}
	}
	return e.now, nil
}

// RunUntil executes events with timestamps <= deadline; events beyond the
// deadline remain queued. The clock advances to the deadline if it was
// reached without draining. Like Run, it enforces the configured event
// budget and returns an error when an event due by the deadline would
// exceed it or falls past the end of simulated time.
func (e *Engine) RunUntil(deadline units.Time) (units.Time, error) {
	end := budgetEnd(e.fired, e.budget)
	for e.pending > 0 && e.peekAt() <= deadline {
		if e.fired == end {
			return e.now, budgetError(e.budget, e.now)
		}
		if !e.Step() {
			return e.now, overflowError(e.now)
		}
	}
	if e.now < deadline && e.pending > 0 {
		e.now = deadline
	}
	return e.now, nil
}
