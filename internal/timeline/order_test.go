package timeline

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/units"
)

// refQueue is the obviously correct queue the engine is checked against:
// one slice of pending events kept sorted by (time, schedule order) and
// popped from the front, with the engine's schedule-watch and RunUntil
// semantics. It makes no attempt to be fast.
type refQueue struct {
	now        units.Time
	q          []refEvent
	watchLimit units.Time
	watchFn    func()
}

type refEvent struct {
	at units.Time
	fn Callback
}

func (r *refQueue) Now() units.Time { return r.now }
func (r *refQueue) Pending() int    { return len(r.q) }

func (r *refQueue) SetScheduleWatch(limit units.Time, fn func()) {
	r.watchLimit, r.watchFn = limit, fn
}

func (r *refQueue) Schedule(delay units.Time, fn Callback) {
	at := r.now + max(delay, 0)
	if r.watchFn != nil && at <= r.watchLimit {
		wf := r.watchFn
		r.watchFn = nil
		wf()
	}
	// The newest event is last in schedule order, so it goes after every
	// pending event due at or before its time.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEvent{at: at, fn: fn}
}

func (r *refQueue) step() {
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	ev.fn()
}

func (r *refQueue) Run() (units.Time, error) {
	for len(r.q) > 0 {
		r.step()
	}
	return r.now, nil
}

func (r *refQueue) RunUntil(deadline units.Time) (units.Time, error) {
	for len(r.q) > 0 && r.q[0].at <= deadline {
		r.step()
	}
	if r.now < deadline && len(r.q) > 0 {
		r.now = deadline
	}
	return r.now, nil
}

// orderQueue is what the differential programs drive: the part of the
// Engine API the reference implements.
type orderQueue interface {
	Now() units.Time
	Pending() int
	Schedule(delay units.Time, fn Callback)
	SetScheduleWatch(limit units.Time, fn func())
	Run() (units.Time, error)
	RunUntil(deadline units.Time) (units.Time, error)
}

// budgeted drives an Engine under a tiny event budget and resumes after
// every budget error, so runs are cut at arbitrary points — inside a run,
// between a run and the zero-delay FIFO — and must carry on in order.
type budgeted struct{ *Engine }

func (b budgeted) Run() (units.Time, error) {
	for {
		if at, err := b.Engine.Run(); err == nil {
			return at, nil
		}
	}
}

func (b budgeted) RunUntil(deadline units.Time) (units.Time, error) {
	for {
		if at, err := b.Engine.RunUntil(deadline); err == nil {
			return at, nil
		}
	}
}

// orderProgram is a random nested scheduling program. Every decision comes
// from one PRNG consumed in firing order, so two queues print the same log
// exactly when they fire the same events at the same times in the same
// order.
type orderProgram struct {
	roots  int // events scheduled before the queue first runs
	events int // events scheduled in all
	fanout int // each firing schedules 0..fanout more
	// delay picks the delay of event id, scheduled when the clock reads now.
	delay func(rng *rand.Rand, now units.Time, id int) units.Time
	// watch, when positive, arms a schedule watch from one firing in watch;
	// a tripped watch logs and schedules one more event.
	watch int
	// step, when positive, drives the queue with RunUntil(now+step) and
	// schedules from outside between the calls, instead of one Run.
	step units.Time
}

func (p orderProgram) run(q orderQueue, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	left, id := p.events, 0
	var schedule func()
	fire := func(me int) Callback {
		return func() {
			fmt.Fprintf(&log, "%d@%d ", me, q.Now())
			for n := rng.Intn(p.fanout + 1); n > 0; n-- {
				schedule()
			}
			if p.watch > 0 && rng.Intn(p.watch) == 0 {
				q.SetScheduleWatch(q.Now()+units.Time(rng.Intn(16)), func() {
					fmt.Fprintf(&log, "watch@%d ", q.Now())
					schedule()
				})
			}
		}
	}
	schedule = func() {
		if left == 0 {
			return
		}
		left--
		id++
		q.Schedule(p.delay(rng, q.Now(), id), fire(id))
	}
	for i := 0; i < p.roots; i++ {
		schedule()
	}
	if p.step <= 0 {
		_, err := q.Run()
		return log.String(), err
	}
	for q.Pending() > 0 {
		if _, err := q.RunUntil(q.Now() + p.step); err != nil {
			return log.String(), err
		}
		fmt.Fprintf(&log, "| %d ", q.Now())
		for n := rng.Intn(3); n > 0; n-- {
			schedule()
		}
	}
	return log.String(), nil
}

// tiesDelay piles events onto four instants, one delay in four zero.
func tiesDelay(rng *rand.Rand, _ units.Time, _ int) units.Time {
	return units.Time(rng.Intn(4))
}

// zeroHeavyDelay schedules half its events with zero delay, most of them
// from inside a run being drained.
func zeroHeavyDelay(rng *rand.Rand, _ units.Time, _ int) units.Time {
	if rng.Intn(2) == 0 {
		return 0
	}
	return units.Time(1 + rng.Intn(3))
}

// spreadDelay keeps far more distinct instants pending than the run table
// has entries.
func spreadDelay(rng *rand.Rand, _ units.Time, _ int) units.Time {
	return units.Time(1 + rng.Intn(16<<tailBits))
}

// alternating schedules events alternately at the next two grid instants
// ahead of the clock (A, B, A, B, ...), with an occasional zero or unit
// delay; grid is increasing.
func alternating(grid []units.Time) func(*rand.Rand, units.Time, int) units.Time {
	return func(rng *rand.Rand, now units.Time, id int) units.Time {
		i := sort.Search(len(grid), func(i int) bool { return grid[i] > now })
		if i+1 >= len(grid) || rng.Intn(8) == 0 {
			return units.Time(rng.Intn(2))
		}
		return grid[i+id%2] - now
	}
}

// firstDiff shows where two logs part ways.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d: got %q, want %q", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestEngineMatchesReferenceOrder runs random nested scheduling programs on
// the engine, plain and cut by a tiny event budget, and on refQueue, and
// requires identical firing sequences.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	even := make([]units.Time, 0, 4096)
	for at := units.Time(8); len(even) < cap(even); at += 8 {
		even = append(even, at)
	}
	// Instants that all share one run-table entry: alternating between two
	// of them makes every schedule overwrite the other's entry.
	var colliding []units.Time
	for at := units.Time(1); len(colliding) < 256; at++ {
		if tailIndex(at) == tailIndex(1) {
			colliding = append(colliding, at)
		}
	}
	cases := []struct {
		name string
		p    orderProgram
	}{
		{"ties", orderProgram{roots: 50, events: 4000, fanout: 3, delay: tiesDelay}},
		{"alternating", orderProgram{roots: 20, events: 4000, fanout: 3, delay: alternating(even)}},
		{"alternating-colliding", orderProgram{roots: 20, events: 4000, fanout: 3, delay: alternating(colliding)}},
		{"more-instants-than-table", orderProgram{roots: 3 << (tailBits - 1), events: 3 << tailBits, fanout: 2, delay: spreadDelay}},
		{"zero-delay-in-runs", orderProgram{roots: 30, events: 4000, fanout: 3, delay: zeroHeavyDelay}},
		{"run-until", orderProgram{roots: 30, events: 4000, fanout: 2, delay: tiesDelay, step: 2}},
		{"run-until-spread", orderProgram{roots: 1 << tailBits, events: 2 << tailBits, fanout: 1, delay: spreadDelay, step: 997}},
		{"watch", orderProgram{roots: 30, events: 4000, fanout: 3, delay: zeroHeavyDelay, watch: 5}},
		{"watch-colliding", orderProgram{roots: 20, events: 4000, fanout: 3, delay: alternating(colliding), watch: 3}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			want, err := c.p.run(&refQueue{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			cut := New()
			cut.SetEventBudget(7)
			for _, q := range []struct {
				name string
				q    orderQueue
			}{{"engine", New()}, {"budget-cut engine", budgeted{cut}}} {
				got, err := c.p.run(q.q, seed)
				if err != nil {
					t.Fatalf("%s seed %d: %s: %v", c.name, seed, q.name, err)
				}
				if got != want {
					t.Fatalf("%s seed %d: %s diverges from the reference order %s", c.name, seed, q.name, firstDiff(got, want))
				}
			}
		}
	}
}

// A burst of events due at one instant shares one heap entry, also when
// two instants are scheduled alternately.
func TestSameInstantEventsShareOneRun(t *testing.T) {
	if tailIndex(7) == tailIndex(9) {
		t.Fatal("instants 7 and 9 share a run-table entry; pick two that do not")
	}
	e := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(7, fn)
		e.Schedule(9, fn)
	}
	if len(e.heap) != 2 {
		t.Fatalf("2000 events at 2 instants occupy %d heap entries, want 2", len(e.heap))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 2000 {
		t.Fatalf("fired %d, want 2000", e.Fired())
	}
}
