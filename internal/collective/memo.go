package collective

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/units"
)

// Memo is a cross-run cache of whole-machine collective sub-results, keyed
// by a content hash of everything that determines the run: the topology
// (dimension kinds, sizes, bandwidths, latencies), the chunk plan (policy
// and chunk count) and the collective (op and size). Re-evaluations in
// sweeps and searches replay a cached collective in one event instead of
// re-simulating its full chunk wave.
//
// Safety. A collective is recorded only when it starts on a quiet engine
// (no pending events, idle dimension aggregates, no flow controller) and is
// stored only if the run fired exactly its own events — any interleaved
// foreign event aborts the recording. A hit fast-forwards the backend's
// dimension ledger and schedules one completion event; if anything observes
// the network before that event fires (a concurrent collective, a
// point-to-point send), the backend's activity hook cancels the replay,
// rolls the ledger back and re-runs the collective live at the same
// instant, in the same order. Observations need not be synchronous: a
// foreign event merely *scheduled* into the replay's window — due after the
// replay's start but at or before its cached end — trips the engine's
// schedule watch and cancels the replay at schedule time, while the clock
// still stands at the start instant. Either way simulated output is
// byte-identical with the memo on or off, for every workload.
//
// Both triggers are sound because a replay only starts on an otherwise
// empty engine: while one is armed the engine holds exactly one pending
// event (the completion), so no third-party event can fire first — all
// foreign scheduling happens synchronously at the replay's start instant,
// which is exactly where the live re-run resumes.
//
// A Memo is safe for concurrent use by machines running on different
// goroutines (the sweep worker pool); entries are immutable once stored.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	hits    uint64
	misses  uint64
}

// NewMemo returns an empty memo table.
func NewMemo() *Memo { return &Memo{entries: make(map[string]*memoEntry)} }

// memoEntry is a recorded collective's net effect, relative to its start.
type memoEntry struct {
	duration units.Time
	events   uint64 // timeline events the live run fired
	chunks   int
	// floorDelta[d] is the dimension-floor advance over the start instant;
	// negative marks a dimension the run never reserved.
	floorDelta   []units.Time
	trafficDelta []units.ByteSize // backend traffic-total deltas
	traffic      []units.ByteSize // Result.TrafficPerDim
}

func (m *Memo) lookup(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.entries[key]
	if ent != nil {
		m.hits++
	} else {
		m.misses++
	}
	return ent
}

func (m *Memo) store(key string, ent *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return // first recording wins; duplicates are identical by key
	}
	m.entries[key] = ent
}

// Stats reports the memo's hit and miss counts and table size.
func (m *Memo) Stats() (hits, misses uint64, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, len(m.entries)
}

// WithMemo attaches a phase-memoization table (nil disables memoization,
// the default). The same Memo may be shared by many engines — and many
// goroutines — as long as they agree on what a key means, which the
// topology-qualified key construction guarantees.
func WithMemo(m *Memo) Option { return func(e *Engine) { e.memo = m } }

// memoRec tracks an in-flight recording: a live collective whose effects
// will be stored if the run proves pure.
type memoRec struct {
	run        *collectiveRun
	key        string
	start      units.Time
	startFired uint64
	scheduled  uint64 // events this run itself scheduled
	ledger     network.Ledger
}

// memoReplay is the single completion event of a replayed collective. It
// doubles as the rollback record: if the replay is cancelled before firing,
// saved restores the backend and the original Start re-runs live.
type memoReplay struct {
	e         *Engine
	cancelled bool
	op        Op
	size      units.ByteSize
	group     Group
	done      func(Result)
	res       Result
	saved     network.Ledger
	events    uint64
}

// Act implements timeline.Actor: the replayed collective completes.
func (r *memoReplay) Act() {
	if r.cancelled {
		// A rollback neutered this event; it fires as a no-op so the
		// engine's fired count matches the live run's total exactly.
		return
	}
	e := r.e
	e.active = nil
	// Disarm before delivering the result: done may chain the next
	// collective, which can arm a fresh replay of its own.
	e.disarmReplay()
	if r.done != nil {
		r.done(r.res)
	}
}

// memoKeyPrefix canonically describes everything about the engine that
// shapes a whole-machine collective: the topology (String() round-trips
// through the parser, so it is canonical), per-dimension bandwidths and
// latencies, and the chunk plan.
func (e *Engine) memoKeyPrefix() string {
	if e.keyPrefix == "" {
		bws := make([]float64, e.top.NumDims())
		lats := make([]units.Time, e.top.NumDims())
		for i, d := range e.top.Dims {
			bws[i] = d.EffectiveBandwidth().GBpsValue()
			lats[i] = d.Latency
		}
		e.keyPrefix = fmt.Sprintf("%s|%v|%v|%v|%d", e.top.String(), bws, lats, e.policy, e.chunks)
	}
	return e.keyPrefix
}

func (e *Engine) memoKey(op Op, size units.ByteSize) string {
	return fmt.Sprintf("%s|%d|%d", e.memoKeyPrefix(), op, size)
}

// memoEligible reports whether a whole-machine collective started right now
// is a pure function of its key: nothing queued on the engine and the
// backend's aggregates idle.
func (e *Engine) memoEligible() bool {
	return e.net.PendingEvents() == 0 && e.net.QuietDims()
}

// disarmReplay removes the engine's armed rollback triggers: its registered
// activity hook and the engine-wide schedule watch. At most one replay can
// be armed per timeline engine at any instant (a replay requires an empty
// event queue to start), so clearing the shared watch never drops another
// collective engine's.
func (e *Engine) disarmReplay() {
	e.net.RemoveActivityHook(e.hookID)
	e.net.SetScheduleWatch(0, nil)
}

// replayMemo fast-forwards a cached collective: the ledger advances to its
// recorded end state, the skipped events are credited, and one completion
// event delivers the result. Two triggers arm the rollback path: the
// backend activity hook (synchronous observations at the start instant) and
// the engine's schedule watch (foreign events scheduled into the replay's
// window, due later than its start). The watch limit is the cached end
// instant, inclusive: in a live run an event landing exactly then was
// scheduled before the collective's final chunk events and fires before
// them, but a replay's single completion event would fire first — so such
// an event must cancel too.
func (e *Engine) replayMemo(ent *memoEntry, op Op, size units.ByteSize, g Group, done func(Result)) {
	now := e.net.Now()
	r := &memoReplay{e: e, op: op, size: size, group: g, done: done, events: ent.events}
	e.net.SnapshotLedger(&r.saved)
	e.net.ApplyLedgerDeltas(now, ent.floorDelta, ent.trafficDelta)
	e.net.CreditEvents(int64(ent.events) - 1)
	r.res = Result{
		Op:            op,
		Size:          size,
		Start:         now,
		End:           now + ent.duration,
		Chunks:        ent.chunks,
		TrafficPerDim: append([]units.ByteSize(nil), ent.traffic...),
	}
	e.active = r
	// Schedule the completion BEFORE arming the watch: the watch must not
	// trip on the replay's own completion event at the window's end.
	e.net.ScheduleActor(ent.duration, r)
	if e.hookFn == nil {
		e.hookFn = e.cancelReplay
	}
	e.hookID = e.net.AddActivityHook(e.hookFn)
	e.net.SetScheduleWatch(r.res.End, e.hookFn)
}

// cancelReplay rolls back the active replay: restore the ledger, revoke the
// event credit, neuter the scheduled completion event, and re-run the
// collective live at the same instant. The cancelled event still fires as a
// no-op, so the credit revocation includes the one event the replay really
// scheduled — the totals match the live run exactly.
func (e *Engine) cancelReplay() {
	r := e.active
	if r == nil {
		return
	}
	e.active = nil
	e.disarmReplay()
	r.cancelled = true
	e.net.RestoreLedger(&r.saved)
	e.net.CreditEvents(-int64(r.events))
	if err := e.Start(r.op, r.size, r.group, nil, r.done); err != nil {
		panic(fmt.Sprintf("collective: replay fallback failed: %v", err))
	}
}

// maybeStoreMemo validates and stores a completed recording. The run is
// pure exactly when the engine fired only the events the run scheduled.
func (e *Engine) maybeStoreMemo(run *collectiveRun) {
	rec := e.rec
	e.rec = nil
	if e.net.EventsFired()-rec.startFired != rec.scheduled {
		return
	}
	var end network.Ledger
	e.net.SnapshotLedger(&end)
	dims := len(end.Floor)
	ent := &memoEntry{
		duration:     e.net.Now() - rec.start,
		events:       rec.scheduled,
		chunks:       run.chunks,
		floorDelta:   make([]units.Time, dims),
		trafficDelta: make([]units.ByteSize, dims),
		traffic:      append([]units.ByteSize(nil), run.traffic...),
	}
	for d := 0; d < dims; d++ {
		if end.Floor[d] != rec.ledger.Floor[d] {
			ent.floorDelta[d] = end.Floor[d] - rec.start
		} else {
			ent.floorDelta[d] = -1
		}
		if ent.floorDelta[d] < -1 {
			return
		}
		ent.trafficDelta[d] = end.Traffic[d] - rec.ledger.Traffic[d]
	}
	e.memo.store(rec.key, ent)
}
