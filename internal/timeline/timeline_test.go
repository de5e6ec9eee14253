package timeline

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEmptyRun(t *testing.T) {
	e := New()
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Errorf("empty run ended at %v, want 0", end)
	}
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30*units.Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*units.Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*units.Nanosecond, func() { order = append(order, 2) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("events fired out of order: %v", order)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*units.Nanosecond, func() { order = append(order, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []units.Time
	e.Schedule(10*units.Nanosecond, func() {
		times = append(times, e.Now())
		e.Schedule(5*units.Nanosecond, func() {
			times = append(times, e.Now())
		})
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 15*units.Nanosecond {
		t.Errorf("end = %v, want 15ns", end)
	}
	if len(times) != 2 || times[0] != 10*units.Nanosecond || times[1] != 15*units.Nanosecond {
		t.Errorf("times = %v", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	e.Schedule(10*units.Nanosecond, func() {
		e.Schedule(-5*units.Nanosecond, func() {
			if e.Now() != 10*units.Nanosecond {
				t.Errorf("negative delay fired at %v, want clamp to 10ns", e.Now())
			}
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAt(t *testing.T) {
	e := New()
	fired := false
	e.ScheduleAt(42*units.Microsecond, func() { fired = true })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || end != 42*units.Microsecond {
		t.Errorf("fired=%v end=%v", fired, end)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil callback")
		}
	}()
	New().Schedule(0, nil)
}

func TestEventBudget(t *testing.T) {
	e := New()
	e.SetEventBudget(100)
	var loop func()
	loop = func() { e.Schedule(units.Nanosecond, loop) }
	e.Schedule(0, loop)
	if _, err := e.Run(); err == nil {
		t.Error("expected budget-exceeded error from livelock")
	}
}

// A budget of n is inclusive: a program of exactly n events completes,
// and a livelock errors with exactly n fired — with a positive delay and
// with zero delay.
func TestEventBudgetIsInclusive(t *testing.T) {
	const n = 10
	e := New()
	e.SetEventBudget(n)
	for i := 0; i < n; i++ {
		e.Schedule(units.Time(i%3), func() {})
	}
	if _, err := e.Run(); err != nil || e.Fired() != n {
		t.Errorf("%d events under budget %d: fired %d, err %v", n, n, e.Fired(), err)
	}
	for _, d := range []units.Time{0, 1} {
		e := New()
		e.SetEventBudget(n)
		var loop func()
		loop = func() { e.Schedule(d, loop) }
		e.Schedule(d, loop)
		if _, err := e.Run(); err == nil || e.Fired() != n {
			t.Errorf("delay=%d: livelock under budget %d: fired %d, err %v", d, n, e.Fired(), err)
		}
	}
}

// Property: for any set of random delays, events fire in nondecreasing
// time order and the clock never runs backwards.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		delays := make([]units.Time, count)
		for i := range delays {
			delays[i] = units.Time(rng.Int63n(1_000_000))
		}
		var fired []units.Time
		for _, d := range delays {
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		if len(fired) != count {
			return false
		}
		sorted := append([]units.Time(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// testActor records its firing times.
type testActor struct {
	eng   *Engine
	times []units.Time
}

func (a *testActor) Act() { a.times = append(a.times, a.eng.Now()) }

func TestScheduleActor(t *testing.T) {
	e := New()
	a := &testActor{eng: e}
	e.ScheduleActor(20*units.Nanosecond, a)
	e.ScheduleActor(10*units.Nanosecond, a)
	e.ScheduleActorAt(30*units.Nanosecond, a)
	e.ScheduleActor(0, a)
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 30*units.Nanosecond {
		t.Errorf("end = %v, want 30ns", end)
	}
	want := []units.Time{0, 10 * units.Nanosecond, 20 * units.Nanosecond, 30 * units.Nanosecond}
	if len(a.times) != len(want) {
		t.Fatalf("fired %d times, want %d", len(a.times), len(want))
	}
	for i, w := range want {
		if a.times[i] != w {
			t.Errorf("firing %d at %v, want %v", i, a.times[i], w)
		}
	}
}

func TestNilActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil actor")
		}
	}()
	New().ScheduleActor(0, nil)
}

// Events landing on the same instant via the heap (scheduled earlier with a
// positive delay) must fire before events scheduled with delay zero at that
// instant — heap arrivals carry earlier sequence numbers. This pins the
// zero-delay fast path's ordering contract.
func TestZeroDelayInterleavesWithHeapFIFO(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(10*units.Nanosecond, func() {
		order = append(order, "first@10")
		// Scheduled at t=10 with delay 0: must fire after the pre-queued
		// heap events also due at t=10 (they were scheduled earlier).
		e.Schedule(0, func() { order = append(order, "zero-a") })
		e.Schedule(0, func() {
			order = append(order, "zero-b")
			e.Schedule(0, func() { order = append(order, "zero-c") })
		})
	})
	e.Schedule(10*units.Nanosecond, func() { order = append(order, "second@10") })
	e.Schedule(10*units.Nanosecond, func() { order = append(order, "third@10") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first@10", "second@10", "third@10", "zero-a", "zero-b", "zero-c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Heavy churn through the free list and the queue must preserve the global
// (time, schedule-order) firing order.
func TestChurnOrdering(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	var fired []units.Time
	var spawn func(depth int)
	spawn = func(depth int) {
		fired = append(fired, e.Now())
		if depth <= 0 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			d := units.Time(rng.Int63n(100))
			e.Schedule(d, func() { spawn(depth - 1) })
		}
	}
	for i := 0; i < 50; i++ {
		d := units.Time(rng.Int63n(1000))
		e.Schedule(d, func() { spawn(4) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("clock ran backwards at firing %d: %v -> %v", i, fired[i-1], fired[i])
		}
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.Schedule(units.Time(i)*units.Nanosecond, func() {})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 10 {
		t.Errorf("Fired() = %d, want 10", e.Fired())
	}
}

// An event that would fall at or past units.MaxTime saturates there instead
// of wrapping the clock negative, and Run reports it as an error rather
// than fire it.
func TestTimeOverflowIsAnError(t *testing.T) {
	e := New()
	var fired []units.Time
	var chain func()
	chain = func() {
		fired = append(fired, e.Now())
		e.Schedule(units.MaxTime/2+1, chain)
	}
	e.Schedule(0, chain)
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("err = %v, want a time-overflow error", err)
	}
	if want := []units.Time{0, units.MaxTime/2 + 1}; !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want the saturated event still queued", e.Pending())
	}
}
