package timeline

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkEventQueue measures the raw queue cost (schedule + pop) with a
// classic hold model: a standing population of pending events where every
// fired event schedules a successor at a pseudorandom future offset. Nearly
// every event opens its own run, so this exercises the radix buckets'
// push, split and pop on every event, the engine's fundamental per-event
// cost.
//
// The burst series is the lockstep shape of a whole-machine phase on a
// large machine: a standing population of 4096 events split over 16
// instants, each event rescheduling itself one period later, so every
// instant carries 256 events.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("burst", func(b *testing.B) {
		const pop, instants, period = 4096, 16, 1000
		e := New()
		fired := 0
		var tick Callback
		tick = func() {
			fired++
			if fired <= b.N {
				e.Schedule(period, tick)
			}
		}
		for i := 0; i < pop; i++ {
			e.Schedule(units.Time(1+i%instants), tick)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	for _, pop := range []int{64, 1024} {
		b.Run(benchSize("pending", pop), func(b *testing.B) {
			e := New()
			// Deterministic xorshift so runs are comparable.
			rng := uint64(0x9e3779b97f4a7c15)
			next := func() units.Time {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return units.Time(rng%1000) + 1
			}
			fired := 0
			var tick Callback
			tick = func() {
				fired++
				if fired <= b.N {
					e.Schedule(next(), tick)
				}
			}
			for i := 0; i < pop; i++ {
				e.Schedule(next(), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventQueueZeroDelay measures a chain of zero-delay events, each
// queued as a run of its own at the current instant.
func BenchmarkEventQueueZeroDelay(b *testing.B) {
	e := New()
	fired := 0
	var tick Callback
	tick = func() {
		fired++
		if fired <= b.N {
			e.Schedule(0, tick)
		}
	}
	e.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchSize(prefix string, v int) string {
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
