package timeline

import (
	"testing"

	"repro/internal/units"
)

// The engine's whole point is an allocation-free hot path: scheduling and
// firing events in steady state (slot and run arenas warm) must
// not allocate at all — for closures the capture is the caller's business,
// for actors nothing allocates anywhere. These guards pin that down so a
// future change can't silently reintroduce per-event garbage.

func TestScheduleStepAllocFree(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the arenas and the zero-delay FIFO past their final sizes.
	for i := 0; i < 64; i++ {
		e.Schedule(units.Time(i%7)*units.Nanosecond, fn)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(3*units.Nanosecond, fn) // bucket lane
		e.Schedule(0, fn)                  // zero-delay lane
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step allocates %.1f objects per event pair, want 0", allocs)
	}
}

func TestScheduleActorAllocFree(t *testing.T) {
	e := New()
	a := &testActor{eng: e}
	e.ScheduleActor(0, a)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a.times = a.times[:0]
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleActor(units.Nanosecond, a)
		e.Step()
		a.times = a.times[:0] // keep the actor's own buffer from growing
	})
	if allocs != 0 {
		t.Errorf("actor schedule+step allocates %.1f objects per event, want 0", allocs)
	}
}

// The hold model with about 1024 distinct instants pending, the shape of
// many jobs on one shared timeline: every fired event schedules a
// successor at a pseudorandom offset, so runs keep splitting down the
// radix buckets. Once the arenas are warm, nothing allocates.
func TestScatteredInstantsAllocFree(t *testing.T) {
	e := New()
	rng := uint64(0x9e3779b97f4a7c15)
	var tick Callback
	tick = func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		e.Schedule(units.Time(rng%(1<<20))+1, tick)
	}
	for i := 0; i < 1024; i++ {
		tick()
	}
	for i := 0; i < 1<<16; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("hold model with 1024 pending instants allocates %.2f objects per event, want 0", allocs)
	}
	if e.Pending() != 1024 {
		t.Fatalf("pending = %d, want the standing 1024", e.Pending())
	}
}
