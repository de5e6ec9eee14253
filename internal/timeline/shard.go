package timeline

import (
	"math"
	"sync"

	"repro/internal/units"
)

// ShardGroup is the sharded event engine: the pending-event set is
// partitioned across K timeline shards, each with its own priority heap,
// and the shards are synchronized with conservative lookahead — at each
// sync round every shard independently (and, for large rounds, in
// parallel) flushes its staged inserts and harvests everything due inside
// the window [t, t+lookahead], where t is the global minimum pending
// timestamp. The harvested streams are merged in deterministic (time, seq)
// order and fired serially, so the group executes events in exactly the
// order the serial Engine would: simulated output is byte-identical to the
// serial run for every shard count, and independent of GOMAXPROCS and
// goroutine scheduling.
//
// The window is safe at any width because firing is conservative: a
// callback can only schedule into its own future, and the group re-syncs
// (flush + harvest + merge) whenever a freshly staged event undercuts the
// next harvested timestamp, so no event is ever fired out of order. The
// lookahead merely widens the batch each sync round amortizes over — the
// natural setting is the minimum cross-shard link latency, below which a
// model cannot react across shards anyway.
//
// What sharding buys is queue bandwidth, not callback parallelism: heap
// maintenance on K shards costs O(log(N/K)) per event on private cache-hot
// arrays, flush and harvest rounds fan out to worker goroutines once a
// round is large enough to amortize the barrier, and the merge is a linear
// K-way pass. Event bodies still run on the coordinating goroutine —
// determinism is the point of a DES core, and the model layers are free to
// exploit real concurrency across simulations instead (see the README's
// guidance on lookahead sync vs batched independent runs).
type ShardGroup struct {
	now      units.Time
	seq      uint64
	fired    uint64
	credited int64
	budget   uint64

	// One-shot schedule watch; see Engine.SetScheduleWatch.
	watchLimit units.Time
	watchFn    func()

	shards []shard
	heaped int // events resident in shard heaps

	// staged counts events buffered in shard insert queues since the last
	// sync round; stagedMin is their minimum timestamp — the bound that
	// triggers a re-sync when it undercuts the harvested stream.
	staged    int
	stagedMin units.Time

	// zq is the same-instant FIFO, exactly the serial engine's fast path:
	// zero-delay events never enter a shard heap.
	zq     []shardEvent
	zqHead int

	// due is the merged, (at, seq)-sorted stream of harvested events;
	// mergeBuf is its double buffer.
	due      []shardEvent
	dueHead  int
	mergeBuf []shardEvent

	lookahead units.Time
}

// shardEvent is a value-typed queue entry, ordered by (at, seq).
type shardEvent struct {
	at    units.Time
	seq   uint64
	fn    Callback
	actor Actor
}

// shard is one timeline partition: a private 4-ary heap plus the insert
// and harvest buffers its round operates on. During a parallel sync round
// each shard is touched by exactly one worker goroutine.
type shard struct {
	heap   []shardEvent
	buf    []shardEvent
	due    []shardEvent
	min    units.Time // heap-top timestamp after the last round
	cursor int        // merge position in due (coordinator-only)
}

const maxTime = units.Time(math.MaxInt64)

// shardParallelMin is the resident-event count above which sync rounds fan
// out to one goroutine per shard; smaller rounds run inline on the
// coordinator, where the barrier would cost more than the work.
const shardParallelMin = 4096

// NewSharded returns an empty k-way sharded engine at simulated time zero
// with zero lookahead (per-instant synchronization).
func NewSharded(k int) *ShardGroup {
	if k < 1 {
		k = 1
	}
	g := &ShardGroup{
		shards:    make([]shard, k),
		stagedMin: maxTime,
	}
	for i := range g.shards {
		g.shards[i].min = maxTime
	}
	return g
}

// Shards reports the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// SetLookahead widens the conservative synchronization window: each sync
// round harvests every event due within d of the earliest pending one.
// Any value is safe (the group re-syncs when a staged event undercuts the
// window); larger windows amortize more events per barrier. The natural
// setting is the minimum cross-shard link latency.
func (g *ShardGroup) SetLookahead(d units.Time) {
	if d < 0 {
		d = 0
	}
	g.lookahead = d
}

// Now returns the current simulated time.
func (g *ShardGroup) Now() units.Time { return g.now }

// Pending reports how many events are waiting across all shards.
func (g *ShardGroup) Pending() int {
	return g.heaped + g.staged + (len(g.zq) - g.zqHead) + (len(g.due) - g.dueHead)
}

// Fired reports how many events have executed since construction,
// including events credited by CreditFired.
func (g *ShardGroup) Fired() uint64 { return uint64(int64(g.fired) + g.credited) }

// CreditFired accounts n events a fast-forward path skipped; see
// Engine.CreditFired. Credited events never count against the event
// budget, which guards live scheduling loops globally across shards.
func (g *ShardGroup) CreditFired(n int64) { g.credited += n }

// SetEventBudget caps the number of events a single Run or RunUntil may
// execute, summed across every shard: a run that would need more errors
// after exactly n. The budget is global, so k shards never buy a workload
// k times the livelock headroom. Zero = unlimited.
func (g *ShardGroup) SetEventBudget(n uint64) { g.budget = n }

// SetScheduleWatch arms a one-shot watch over the window (now, limit]; see
// Engine.SetScheduleWatch. The watch fires on the coordinating goroutine
// before the triggering event is staged, so it observes and produces the
// same deterministic seq order as the serial engine.
func (g *ShardGroup) SetScheduleWatch(limit units.Time, fn func()) {
	g.watchLimit, g.watchFn = limit, fn
}

func (g *ShardGroup) enqueue(delay units.Time, fn Callback, actor Actor) {
	if delay < 0 {
		delay = 0
	}
	if g.watchFn != nil && g.now+delay <= g.watchLimit {
		wf := g.watchFn
		g.watchFn = nil // disarm before invoking: wf may schedule into the window
		wf()
	}
	g.seq++
	ev := shardEvent{at: g.now + delay, seq: g.seq, fn: fn, actor: actor}
	if delay == 0 {
		g.zq = append(g.zq, ev)
		return
	}
	// Round-robin placement by sequence number balances the shards for any
	// schedule pattern and keeps placement deterministic.
	sh := &g.shards[int(ev.seq%uint64(len(g.shards)))]
	sh.buf = append(sh.buf, ev)
	g.staged++
	if ev.at < g.stagedMin {
		g.stagedMin = ev.at
	}
}

// Schedule enqueues fn to run after delay (negative clamps to zero).
func (g *ShardGroup) Schedule(delay units.Time, fn Callback) {
	if fn == nil {
		panic("timeline: Schedule called with nil callback")
	}
	g.enqueue(delay, fn, nil)
}

// ScheduleAt enqueues fn at an absolute simulated time, which must not be
// in the past.
func (g *ShardGroup) ScheduleAt(at units.Time, fn Callback) {
	if at < g.now {
		at = g.now
	}
	g.Schedule(at-g.now, fn)
}

// ScheduleActor enqueues a typed event to run after delay.
func (g *ShardGroup) ScheduleActor(delay units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActor called with nil actor")
	}
	g.enqueue(delay, nil, a)
}

// ScheduleActorAt enqueues a typed event at an absolute simulated time.
func (g *ShardGroup) ScheduleActorAt(at units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActorAt called with nil actor")
	}
	if at < g.now {
		at = g.now
	}
	g.enqueue(at-g.now, nil, a)
}

// Run executes events until the queue drains.
func (g *ShardGroup) Run() (units.Time, error) { return g.run(0, false) }

// RunUntil executes events with timestamps <= deadline; events beyond the
// deadline remain queued, and the clock advances to the deadline if it was
// reached without draining.
func (g *ShardGroup) RunUntil(deadline units.Time) (units.Time, error) {
	return g.run(deadline, true)
}

// run is the coordinator loop. Each iteration fires the same-instant FIFO,
// then either fires the next harvested instant (when the due stream is
// provably next in global order) or syncs the shards to extend it.
func (g *ShardGroup) run(deadline units.Time, bounded bool) (units.Time, error) {
	end := budgetEnd(g.fired, g.budget)
	for {
		// Same-instant FIFO: entries are due exactly at the current clock
		// and fire in schedule order, after every harvested event at this
		// instant (the instant loop below exhausts those first — a firing
		// callback cannot create a new heap event due "now", only zq
		// entries or strictly future ones).
		if g.zqHead < len(g.zq) {
			if bounded && g.now > deadline {
				break
			}
			if g.fired == end {
				return g.now, budgetError(g.budget, g.now)
			}
			ev := g.zq[g.zqHead]
			g.zq[g.zqHead].fn, g.zq[g.zqHead].actor = nil, nil
			g.zqHead++
			if g.zqHead == len(g.zq) {
				g.zq = g.zq[:0]
				g.zqHead = 0
			}
			g.fire(ev)
			continue
		}

		// The earliest pending timestamp across the merged stream, the
		// staged inserts, and the shard heaps.
		dueAt := maxTime
		if g.dueHead < len(g.due) {
			dueAt = g.due[g.dueHead].at
		}
		other := g.stagedMin
		for i := range g.shards {
			if g.shards[i].min < other {
				other = g.shards[i].min
			}
		}
		t := dueAt
		if other < t {
			t = other
		}
		if t == maxTime {
			break // drained
		}
		if bounded && t > deadline {
			if g.now < deadline {
				g.now = deadline
			}
			break
		}

		// Conservative synchronization: if any staged or heap-resident
		// event could precede (or tie, at a lower seq than a later-staged
		// entry never can — ties sort behind harvested events, but a
		// strictly earlier one must not) the harvested stream, fold it in
		// before firing.
		if other <= dueAt {
			windowEnd := t + g.lookahead
			if windowEnd < t {
				windowEnd = maxTime // overflow saturates
			}
			if bounded && windowEnd > deadline {
				windowEnd = deadline
			}
			g.sync(windowEnd)
			continue
		}

		// Fire the whole instant from the merged stream in (at, seq)
		// order. Callbacks may stage new events, but only strictly future
		// ones, so the instant's due set is fixed once it begins.
		g.now = dueAt
		for g.dueHead < len(g.due) && g.due[g.dueHead].at == g.now {
			if g.fired == end {
				return g.now, budgetError(g.budget, g.now)
			}
			ev := g.due[g.dueHead]
			g.due[g.dueHead].fn, g.due[g.dueHead].actor = nil, nil
			g.dueHead++
			g.fire(ev)
		}
		if g.dueHead == len(g.due) {
			g.due = g.due[:0]
			g.dueHead = 0
		}
	}
	return g.now, nil
}

func (g *ShardGroup) fire(ev shardEvent) {
	g.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.actor.Act()
	}
}

// sync runs one flush+harvest round: every shard moves its staged inserts
// into its heap and pops everything due at or before windowEnd, then the
// coordinator merges the K sorted harvests with the leftover due stream.
// Large rounds fan out to one worker goroutine per shard; the WaitGroup
// barrier orders every shard's writes before the merge reads them.
func (g *ShardGroup) sync(windowEnd units.Time) {
	flushed := g.staged
	if len(g.shards) > 1 && g.heaped+g.staged >= shardParallelMin {
		var wg sync.WaitGroup
		wg.Add(len(g.shards))
		for i := range g.shards {
			go shardRound(&g.shards[i], windowEnd, &wg)
		}
		wg.Wait()
	} else {
		for i := range g.shards {
			g.shards[i].round(windowEnd)
		}
	}
	g.staged = 0
	g.stagedMin = maxTime
	harvested := 0
	for i := range g.shards {
		harvested += len(g.shards[i].due)
	}
	g.heaped += flushed - harvested
	g.mergeDue()
}

func shardRound(sh *shard, windowEnd units.Time, wg *sync.WaitGroup) {
	sh.round(windowEnd)
	wg.Done()
}

// round flushes the shard's staged inserts and harvests its due events;
// both buffers are private to the shard for the duration of the round.
func (sh *shard) round(windowEnd units.Time) {
	for i := range sh.buf {
		sh.push(sh.buf[i])
		sh.buf[i].fn, sh.buf[i].actor = nil, nil
	}
	sh.buf = sh.buf[:0]
	sh.due = sh.due[:0]
	for len(sh.heap) > 0 && sh.heap[0].at <= windowEnd {
		sh.due = append(sh.due, sh.pop())
	}
	if len(sh.heap) > 0 {
		sh.min = sh.heap[0].at
	} else {
		sh.min = maxTime
	}
}

// mergeDue K-way-merges the shards' harvested streams (each already
// (at, seq)-sorted — heaps pop in order) with the unfired remainder of the
// previous merge into a fresh globally ordered stream. The output reuses
// the double buffer, so the steady state allocates nothing.
func (g *ShardGroup) mergeDue() {
	total := len(g.due) - g.dueHead
	for i := range g.shards {
		total += len(g.shards[i].due)
	}
	if cap(g.mergeBuf) < total {
		g.mergeBuf = make([]shardEvent, 0, 2*total)
	}
	out := g.mergeBuf[:0]
	left := g.due[g.dueHead:]
	li := 0
	// Linear (K+1)-way merge: K is small (<= machine cores), so a scan per
	// output element beats a loser tree here. Per-shard cursors live in
	// the shard structs, keeping the pass allocation-free at any K.
	for {
		bestAt := maxTime
		var bestSeq uint64
		found := false
		bestSrc := -1 // -1 = leftover, else shard index
		if li < len(left) {
			bestAt, bestSeq, bestSrc, found = left[li].at, left[li].seq, -1, true
		}
		for i := range g.shards {
			d := g.shards[i].due
			c := g.shards[i].cursor
			if c >= len(d) {
				continue
			}
			if !found || d[c].at < bestAt || (d[c].at == bestAt && d[c].seq < bestSeq) {
				bestAt, bestSeq, bestSrc, found = d[c].at, d[c].seq, i, true
			}
		}
		if !found {
			break
		}
		if bestSrc == -1 {
			out = append(out, left[li])
			li++
		} else {
			out = append(out, g.shards[bestSrc].due[g.shards[bestSrc].cursor])
			g.shards[bestSrc].cursor++
		}
	}
	g.mergeBuf = g.due[:0]
	g.due = out
	g.dueHead = 0
	for i := range g.shards {
		g.shards[i].cursor = 0
	}
}

// --- per-shard 4-ary value heap ordered by (at, seq) ---

func shardLess(a, b *shardEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (sh *shard) push(ev shardEvent) {
	sh.heap = append(sh.heap, ev)
	h := sh.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !shardLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (sh *shard) pop() shardEvent {
	h := sh.heap
	root := h[0]
	n := len(h) - 1
	x := h[n]
	h[n].fn, h[n].actor = nil, nil
	sh.heap = h[:n]
	if n > 0 {
		h = sh.heap
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if shardLess(&h[j], &h[best]) {
					best = j
				}
			}
			if !shardLess(&h[best], &x) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = x
	}
	return root
}
