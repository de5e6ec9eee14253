package network

import (
	"testing"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// allocTestBackend builds R(4)_SW(4)_T2D(4,4): the ring and torus
// dimensions have transit paths, the switch has none.
func allocTestBackend(t testing.TB) (*timeline.Engine, *Backend) {
	t.Helper()
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100), Latency: 100 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Torus2D(4, 4), Size: 16, Bandwidth: units.GBps(25), Latency: 200 * units.Nanosecond},
	)
	eng := timeline.New()
	return eng, NewBackend(eng, top)
}

// Steady-state point-to-point traffic must not allocate, with or without
// transit charging: routes are derived arithmetically, transit paths are
// appended into one reused buffer, a routed send's legs are delivered by
// one pooled event, and the rendezvous recycles its channel records, each
// counting a channel's unclaimed messages and queueing its waiting
// receives, and finds them through a table of busy channels that grows to
// the most channels busy at once and never shrinks. The receive actor is
// built once, as a simulator's pooled completion events are.
func TestSimSendRecvAllocFree(t *testing.T) {
	for _, transit := range []bool{false, true} {
		eng, b := allocTestBackend(t)
		b.SetTransitCharging(transit)
		recv := timeline.Callback(func() {})
		// (1,0,0) -> (3,3,10): a two-hop ring leg, a switch leg and a torus
		// leg of four hops.
		const far = 3 + 3*4 + 10*16
		// burst channels are busy at once, past the table's first size, so
		// the warm-up round grows the table several times.
		const burst = 200
		n := b.Topology().NumNPUs()
		exercise := func() {
			// Recv-first on the three-leg route, recv-after on a one-hop
			// ring send, and a message to itself.
			b.SimRecv(1, far, 7, recv)
			b.SimSend(1, far, 7, units.KB, nil)
			b.SimSend(2, 3, 8, units.KB, nil)
			b.SimSend(5, 5, 9, units.KB, nil)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			b.SimRecv(2, 3, 8, recv)
			b.SimRecv(5, 5, 9, recv)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				b.SimRecv(i, (7*i+1)%n, i, recv)
			}
			for i := 0; i < burst; i++ {
				b.SimSend(i, (7*i+1)%n, i, units.KB, nil)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		exercise() // warm the pools and grow the table
		if got := len(b.chans.slots); got < 2*burst {
			t.Fatalf("transit=%v: %d table slots after the burst, want at least %d", transit, got, 2*burst)
		}
		if allocs := testing.AllocsPerRun(50, exercise); allocs > 0 {
			t.Errorf("transit=%v: SimSend/SimRecv round allocates %.1f objects, want 0", transit, allocs)
		}
	}
}

// SendOnDim (the collective algorithms' per-message fast path) must be
// allocation-free in steady state as well.
func TestSendOnDimAllocFree(t *testing.T) {
	for _, transit := range []bool{false, true} {
		eng, b := allocTestBackend(t)
		b.SetTransitCharging(transit)
		delivered := timeline.Callback(func() {})
		exercise := func() {
			b.SendOnDim(0, 2, 0, units.KB, nil, delivered)     // two ring hops
			b.SendOnDim(1, 2, 0, units.KB, nil, delivered)     // one ring hop
			b.SendOnDim(0, 8, 1, units.KB, nil, delivered)     // switch
			b.SendOnDim(0, 10*16, 2, units.KB, nil, delivered) // four torus hops
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		exercise()
		if allocs := testing.AllocsPerRun(50, exercise); allocs > 0 {
			t.Errorf("transit=%v: SendOnDim round allocates %.1f objects, want 0", transit, allocs)
		}
	}
}
