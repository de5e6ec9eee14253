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
// popped from the front. It makes no attempt to be fast.
type refQueue struct {
	now units.Time
	q   []refEvent
}

type refEvent struct {
	at units.Time
	fn Callback
}

func (r *refQueue) Now() units.Time { return r.now }
func (r *refQueue) Pending() int    { return len(r.q) }

func (r *refQueue) Schedule(delay units.Time, fn Callback) {
	at := r.now + max(delay, 0)
	// The newest event is last in schedule order, so it goes after every
	// pending event due at or before its time.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEvent{at: at, fn: fn}
}

func (r *refQueue) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refQueue) Run() (units.Time, error) {
	for r.Step() {
	}
	return r.now, nil
}

// orderQueue is what the differential programs drive: the part of the
// Engine API the reference implements.
type orderQueue interface {
	Now() units.Time
	Pending() int
	Schedule(delay units.Time, fn Callback)
	Step() bool
	Run() (units.Time, error)
}

// budgeted drives an Engine under a tiny event budget and resumes after
// every budget error, so runs are cut at arbitrary points — inside a run,
// between two runs due at one instant — and must carry on in order.
type budgeted struct{ *Engine }

func (b budgeted) Run() (units.Time, error) {
	for {
		if at, err := b.Engine.Run(); err == nil {
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
	// batch, when positive, drives the queue in batches of that many Step
	// calls and schedules from outside between the batches, instead of
	// one Run. A batch may end inside a run of one instant's events.
	batch int
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
	if p.batch <= 0 {
		_, err := q.Run()
		return log.String(), err
	}
	for q.Pending() > 0 {
		for i := 0; i < p.batch && q.Pending() > 0; i++ {
			if !q.Step() {
				return log.String(), fmt.Errorf("step refused a pending event at t=%d", q.Now())
			}
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

// highBitsDelay starts its roots just below 2^40 and otherwise draws delays
// next to a random power of two (2^k-1, 2^k or 2^k+1), or zero: instants
// cross high bit boundaries of the clock, so runs are queued in high radix
// buckets and split down through many levels before they fire.
func highBitsDelay(rng *rand.Rand, now units.Time, _ int) units.Time {
	if now == 0 {
		return 1<<40 - units.Time(rng.Intn(64))
	}
	if rng.Intn(8) == 0 {
		return 0
	}
	return 1<<rng.Intn(42) + units.Time(rng.Intn(3)-1)
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
		{"stepped", orderProgram{roots: 30, events: 4000, fanout: 2, delay: tiesDelay, batch: 3}},
		{"stepped-spread", orderProgram{roots: 1 << tailBits, events: 2 << tailBits, fanout: 1, delay: spreadDelay, batch: 97}},
		{"high-bits", orderProgram{roots: 40, events: 4000, fanout: 3, delay: highBitsDelay}},
		{"stepped-high-bits", orderProgram{roots: 40, events: 4000, fanout: 2, delay: highBitsDelay, batch: 5}},
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

// queuedRuns counts the runs waiting in the engine's buckets.
func (e *Engine) queuedRuns() int {
	n := 0
	for k := range e.buckets {
		if e.nonEmpty&(1<<k) == 0 {
			continue
		}
		for i := e.buckets[k].head; i >= 0; i = e.runs[i].link {
			n++
		}
	}
	return n
}

// A burst of events due at one instant shares one queued run, also when
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
	if n := e.queuedRuns(); n != 2 {
		t.Fatalf("2000 events at 2 instants occupy %d queued runs, want 2", n)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 2000 {
		t.Fatalf("fired %d, want 2000", e.Fired())
	}
}

// FuzzEngineOrder is TestEngineMatchesReferenceOrder with the program's
// shape drawn from the fuzz input: the delay family, fanout, roots, Step
// batch size, event budget and seed. The engine must fire exactly the
// reference queue's sequence.
func FuzzEngineOrder(f *testing.F) {
	families := []func(*rand.Rand, units.Time, int) units.Time{
		tiesDelay,
		zeroHeavyDelay,
		spreadDelay,
		highBitsDelay,
		alternating([]units.Time{8, 16, 24, 32, 40, 48, 56, 64, 72, 80}),
		alternating([]units.Time{1 << 20, 1<<20 + 1, 1 << 21, 1<<21 + 1, 1 << 22, 1<<22 + 1}),
	}
	f.Add(uint8(0), uint8(3), uint8(20), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(2), uint8(30), uint8(2), uint8(7), int64(2))
	f.Add(uint8(2), uint8(1), uint8(200), uint8(4), uint8(0), int64(3))
	f.Add(uint8(3), uint8(3), uint8(40), uint8(0), uint8(5), int64(4))
	f.Add(uint8(3), uint8(2), uint8(40), uint8(16), uint8(0), int64(5))
	f.Add(uint8(4), uint8(3), uint8(10), uint8(5), uint8(3), int64(6))
	f.Add(uint8(5), uint8(2), uint8(10), uint8(0), uint8(1), int64(7))
	f.Fuzz(func(t *testing.T, family, fanout, roots, batch, cut uint8, seed int64) {
		p := orderProgram{
			roots:  1 + int(roots),
			events: 600,
			fanout: int(fanout % 4),
			delay:  families[int(family)%len(families)],
			batch:  int(batch),
		}
		want, err := p.run(&refQueue{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		var q orderQueue = e
		if cut > 0 {
			e.SetEventBudget(uint64(cut))
			q = budgeted{e}
		}
		got, err := p.run(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("engine diverges from the reference order %s", firstDiff(got, want))
		}
	})
}
