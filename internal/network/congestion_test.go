package network

import (
	"testing"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

func ring8For(t *testing.T) (*timeline.Engine, *Backend) {
	t.Helper()
	top := topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 8, Bandwidth: units.GBps(100), Latency: 0,
	})
	eng := timeline.New()
	return eng, NewBackend(eng, top)
}

func TestTransitChargingOccupiesIntermediateLinks(t *testing.T) {
	eng, b := ring8For(t)
	b.SetTransitCharging(true)
	var longAt, shortAt units.Time
	// 0 -> 3 transits nodes 1 and 2; a concurrent 1 -> 2 send must queue
	// behind it on those links.
	b.SendOnDim(0, 3, 0, units.MB, nil, timeline.Callback(func() { longAt = eng.Now() }))
	b.SendOnDim(1, 2, 0, units.MB, nil, timeline.Callback(func() { shortAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ser := units.FromMicros(10)
	if longAt != ser {
		t.Errorf("transit send delivered at %v, want %v", longAt, ser)
	}
	if shortAt != 2*ser {
		t.Errorf("contending send delivered at %v, want %v (queued behind transit)", shortAt, 2*ser)
	}
}

func TestEndpointChargingIgnoresTransit(t *testing.T) {
	eng, b := ring8For(t)
	// Default mode: the same pair of sends shares no endpoint, so both
	// complete together.
	var longAt, shortAt units.Time
	b.SendOnDim(0, 3, 0, units.MB, nil, timeline.Callback(func() { longAt = eng.Now() }))
	b.SendOnDim(1, 2, 0, units.MB, nil, timeline.Callback(func() { shortAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if longAt != shortAt {
		t.Errorf("endpoint-only sends should not contend: %v vs %v", longAt, shortAt)
	}
}

func TestTransitChargingNeighborUnchanged(t *testing.T) {
	// Adjacent sends behave identically in both modes.
	run := func(transit bool) units.Time {
		eng, b := ring8For(t)
		b.SetTransitCharging(transit)
		var at units.Time
		b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { at = eng.Now() }))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if run(false) != run(true) {
		t.Error("neighbor send differs between modes")
	}
}

func TestTransitChargingWraparound(t *testing.T) {
	eng, b := ring8For(t)
	b.SetTransitCharging(true)
	// 0 -> 6 goes backwards (2 hops through node 7).
	var at units.Time
	b.SendOnDim(0, 6, 0, units.MB, nil, timeline.Callback(func() { at = eng.Now() }))
	// Node 7's link is now charged: a send from 7 queues.
	var at7 units.Time
	b.SendOnDim(7, 6, 0, units.MB, nil, timeline.Callback(func() { at7 = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at7 <= at {
		t.Errorf("send from transit node should queue: %v vs %v", at7, at)
	}
}

func TestTransitChargingNonRingFallsBack(t *testing.T) {
	top := topology.MustNew(topology.Dim{
		Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(100), Latency: 0,
	})
	eng := timeline.New()
	b := NewBackend(eng, top)
	b.SetTransitCharging(true)
	var a, c units.Time
	b.SendOnDim(0, 3, 0, units.MB, nil, timeline.Callback(func() { a = eng.Now() }))
	b.SendOnDim(1, 2, 0, units.MB, nil, timeline.Callback(func() { c = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("switch sends have no transit NPUs; got %v vs %v", a, c)
	}
}
