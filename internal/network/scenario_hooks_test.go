package network

import (
	"testing"

	"repro/internal/timeline"
	"repro/internal/units"
)

// TestDimBandwidthScale checks that degrading a dimension stretches the
// serialization time of future reservations (latency is untouched), that
// restoring the scale to 1 returns to clean timing, and that the getter
// tracks the applied scale.
func TestDimBandwidthScale(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	if got := b.DimBandwidthScale(0); got != 1 {
		t.Fatalf("clean scale = %g, want 1", got)
	}
	b.SetDimBandwidthScale(0, 0.5)
	if got := b.DimBandwidthScale(0); got != 0.5 {
		t.Fatalf("scale after degrade = %g, want 0.5", got)
	}
	var deliveredAt units.Time
	// 1 MB over 100 GB/s at half bandwidth is 20 us, plus one 500 ns hop.
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := units.FromMicros(20) + 500*units.Nanosecond
	if deliveredAt != want {
		t.Errorf("degraded delivery at %v, want %v", deliveredAt, want)
	}

	// Restoring the dimension brings future reservations back to clean
	// serialization time.
	b.SetDimBandwidthScale(0, 1)
	if got := b.DimBandwidthScale(0); got != 1 {
		t.Fatalf("scale after restore = %g, want 1", got)
	}
	start := eng.Now()
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := deliveredAt-start, units.FromMicros(10)+500*units.Nanosecond; got != want {
		t.Errorf("restored delivery took %v, want %v", got, want)
	}
}

// TestDimBandwidthScaleIgnoresInvalid checks that out-of-range dimensions
// and non-positive scales are ignored rather than corrupting state: a send
// after them serializes at the clean bandwidth.
func TestDimBandwidthScaleIgnoresInvalid(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	b.SetDimBandwidthScale(-1, 0.5)
	b.SetDimBandwidthScale(7, 0.5)
	b.SetDimBandwidthScale(0, 0)
	b.SetDimBandwidthScale(0, -2)
	if got := b.DimBandwidthScale(0); got != 1 {
		t.Errorf("scale after invalid mutations = %g, want 1", got)
	}
	if got := b.DimBandwidthScale(-1); got != 1 {
		t.Errorf("out-of-range getter = %g, want 1", got)
	}
	var deliveredAt units.Time
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := units.FromMicros(10) + 500*units.Nanosecond; deliveredAt != want {
		t.Errorf("delivery after invalid mutations at %v, want the clean %v", deliveredAt, want)
	}
}

// TestStallNPULinks checks that failing an NPU pushes its link availability
// to the recovery instant, that an earlier deadline never rewinds it, and
// that out-of-range NPUs are ignored: a send issued at t=0 from the failed
// NPU serializes only after the stall expires, while a send between two
// healthy NPUs runs clean.
func TestStallNPULinks(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	stallUntil := units.FromMicros(50)
	b.StallNPULinks(0, stallUntil)
	b.StallNPULinks(0, units.FromMicros(1))
	b.StallNPULinks(-1, units.FromMicros(500))
	b.StallNPULinks(99, units.FromMicros(500))
	var stalledAt, cleanAt units.Time
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { stalledAt = eng.Now() }))
	b.SendOnDim(2, 3, 0, units.MB, nil, timeline.Callback(func() { cleanAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	clean := units.FromMicros(10) + 500*units.Nanosecond
	if want := stallUntil + clean; stalledAt != want {
		t.Errorf("post-stall delivery at %v, want %v", stalledAt, want)
	}
	if cleanAt != clean {
		t.Errorf("delivery between healthy NPUs at %v, want %v", cleanAt, clean)
	}
}
