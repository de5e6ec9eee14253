package network

import (
	"slices"
	"testing"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

func ring4() *topology.Topology {
	return topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 4,
		Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond,
	})
}

func TestSingleSendTiming(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var deliveredAt units.Time
	// 1 MB over 100 GB/s is 10 us serialization, plus one hop of 500 ns.
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := units.FromMicros(10) + 500*units.Nanosecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestRingWraparoundHops(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var deliveredAt units.Time
	// 0 -> 3 is one hop backwards around the ring.
	b.SendOnDim(0, 3, 0, units.MB, nil, timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := units.FromMicros(10) + 500*units.Nanosecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v (1 wraparound hop)", deliveredAt, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var first, second units.Time
	// Two back-to-back sends from NPU 0 share its dim-0 link: the second
	// serializes behind the first.
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { first = eng.Now() }))
	b.SendOnDim(0, 3, 0, units.MB, nil, timeline.Callback(func() { second = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ser := units.FromMicros(10)
	lat := 500 * units.Nanosecond
	if first != ser+lat {
		t.Errorf("first delivered at %v, want %v", first, ser+lat)
	}
	if second != 2*ser+lat {
		t.Errorf("second delivered at %v, want %v (serialized)", second, 2*ser+lat)
	}
}

func TestSendAndReceiveShareLink(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var d1, d2 units.Time
	// NPU 1 both receives from 0 and sends to 2; its half-duplex dim link
	// serializes the two transfers (the paper's sent+received accounting).
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { d1 = eng.Now() }))
	b.SendOnDim(1, 2, 0, units.MB, nil, timeline.Callback(func() { d2 = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ser := units.FromMicros(10)
	lat := 500 * units.Nanosecond
	if d1 != ser+lat {
		t.Errorf("recv delivered at %v, want %v", d1, ser+lat)
	}
	if d2 != 2*ser+lat {
		t.Errorf("send delivered at %v, want %v (shared link)", d2, 2*ser+lat)
	}
}

func TestDisjointLinksRunInParallel(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var d1, d2 units.Time
	b.SendOnDim(0, 1, 0, units.MB, nil, timeline.Callback(func() { d1 = eng.Now() }))
	b.SendOnDim(2, 3, 0, units.MB, nil, timeline.Callback(func() { d2 = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("disjoint transfers should complete together: %v vs %v", d1, d2)
	}
}

func TestSendOnDimPanicsAcrossDims(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(10)},
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(10)},
	)
	eng := timeline.New()
	b := NewBackend(eng, top)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for endpoints differing in another dim")
		}
	}()
	b.SendOnDim(0, 3, 0, units.KB, nil, noop) // ranks 0 and 3 differ in both dims
}

// noop is the delivery actor of a send whose landing a test does not
// observe.
var noop = timeline.Callback(func() {})

func TestSimSendSimRecvRendezvous(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var fired []units.Time
	b.SimRecv(0, 1, 7, timeline.Callback(func() { fired = append(fired, eng.Now()) }))
	b.SimSend(0, 1, 7, units.MB, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The receive fires once, inside the delivery event: 10 us of
	// serialization plus one 500 ns hop.
	if want := units.FromMicros(10) + 500*units.Nanosecond; len(fired) != 1 || fired[0] != want {
		t.Errorf("recv fired at %v, want once at %v", fired, want)
	}
}

func TestRecvPostedAfterArrival(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	fired := false
	b.SimSend(0, 1, 3, units.KB, nil)
	// Drain the send first, then post the recv: it must still fire.
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	b.SimRecv(0, 1, 3, timeline.Callback(func() { fired = true }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("late-posted recv did not fire")
	}
}

// A channel pairs its messages and receives first in, first out, whichever
// side comes first, and its record leaves the table of busy channels for
// the pool as soon as it holds neither an unclaimed message nor a waiting
// receive.
func TestChannelPairsInOrder(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var order []int
	recv := func(i int) timeline.Actor {
		return timeline.Callback(func() { order = append(order, i) })
	}
	run := func() {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		b.SimSend(0, 1, 5, units.KB, nil)
	}
	run()
	// Receives 0-2 claim the three messages; 3 and 4 wait for the next two.
	for i := 0; i < 5; i++ {
		b.SimRecv(0, 1, 5, recv(i))
	}
	run()
	if want := []int{0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("claimed in order %v, want %v", order, want)
	}
	b.SimSend(0, 1, 5, units.KB, nil)
	b.SimSend(0, 1, 5, units.KB, nil)
	run()
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("matched in order %v, want %v", order, want)
	}
	if b.chans.live != 0 || len(b.channels) != 1 {
		t.Errorf("%d open channels and %d pooled records, want 0 and 1", b.chans.live, len(b.channels))
	}
}

func TestTagsAreIndependent(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var order []int
	b.SimRecv(0, 1, 1, timeline.Callback(func() { order = append(order, 1) }))
	b.SimRecv(0, 1, 2, timeline.Callback(func() { order = append(order, 2) }))
	b.SimSend(0, 1, 2, units.KB, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != 2 {
		t.Errorf("tag matching wrong: fired %v", order)
	}
}

func TestDimensionOrderedRouting(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100), Latency: units.Microsecond},
		topology.Dim{Kind: topology.Switch, Size: 2, Bandwidth: units.GBps(50), Latency: units.Microsecond},
	)
	eng := timeline.New()
	b := NewBackend(eng, top)
	var deliveredAt units.Time
	b.SimRecv(0, 3, 0, timeline.Callback(func() { deliveredAt = eng.Now() }))
	b.SimSend(0, 3, 0, units.MB, nil) // (0,0) -> (1,1): one ring leg, one switch leg
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Leg 1: 1MB @ 100GB/s = 10us + 1 hop * 1us = 11us.
	// Leg 2: 1MB @ 50GB/s = 20us + 2 hops * 1us = 22us.
	want := units.FromMicros(33)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if got := b.EstimateP2P(0, 3, units.MB); got != want {
		t.Errorf("EstimateP2P = %v, want %v", got, want)
	}
}

func TestSelfSendLoopback(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	fired := false
	b.SimRecv(2, 2, 0, timeline.Callback(func() { fired = true }))
	b.SimSend(2, 2, 0, units.MB, nil)
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || end != 0 {
		t.Errorf("loopback fired=%v end=%v, want instant delivery", fired, end)
	}
	if b.EstimateP2P(2, 2, units.GB) != 0 {
		t.Error("self-send estimate should be 0")
	}
}

func TestTrafficStats(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	b.SendOnDim(0, 1, 0, 3*units.MB, nil, noop)
	b.SendOnDim(1, 0, 0, 5*units.MB, nil, noop)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Each message counts once sent and once received.
	if got := b.Stats().Traffic[0]; got != 16*units.MB {
		t.Errorf("Traffic[0] = %v, want 16MB", got)
	}
	b.ReservePhase(b.Machine(), 0, 2*units.MB)
	if got := b.Stats().Traffic[0]; got != 16*units.MB+4*2*units.MB {
		t.Errorf("Traffic[0] after a whole-machine phase = %v, want 24MB", got)
	}
	// Reading the totals does not drain them.
	if got := b.Stats().Traffic[0]; got != 24*units.MB {
		t.Errorf("Traffic[0] on a second read = %v, want 24MB", got)
	}
}

func TestSentCallbackBeforeDelivery(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	var sentAt, deliveredAt units.Time
	b.SendOnDim(0, 2, 0, units.MB,
		timeline.Callback(func() { sentAt = eng.Now() }),
		timeline.Callback(func() { deliveredAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != units.FromMicros(10) {
		t.Errorf("sentAt = %v, want 10us (serialization only)", sentAt)
	}
	// 0 -> 2 on a 4-ring is 2 hops.
	if deliveredAt != sentAt+units.Microsecond {
		t.Errorf("deliveredAt = %v, want sent + 2*500ns", deliveredAt)
	}
}

func TestMultiLegRouteSerializesPerDim(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
	)
	eng := timeline.New()
	b := NewBackend(eng, top)
	// (0,0,0) -> (1,1,1): three legs of 10us each.
	dst := top.Rank([]int{1, 1, 1})
	var at units.Time
	b.SimRecv(0, dst, 0, timeline.Callback(func() { at = eng.Now() }))
	b.SimSend(0, dst, 0, units.MB, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != units.FromMicros(30) {
		t.Errorf("3-leg route delivered at %v, want 30us", at)
	}
}

func TestSentCallbackOnMultiLegRoute(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Ring, Size: 2, Bandwidth: units.GBps(100)},
	)
	eng := timeline.New()
	b := NewBackend(eng, top)
	var sentAt units.Time
	b.SimSend(0, 3, 0, units.MB, timeline.Callback(func() { sentAt = eng.Now() }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Sent fires when the first leg's egress frees: 10us.
	if sentAt != units.FromMicros(10) {
		t.Errorf("sentAt = %v, want 10us (first leg only)", sentAt)
	}
}

func TestPhaseAvailabilityAndReserve(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	set := b.NewLinkSet([]int{1, 2})
	if got := b.PhaseAvailability(set, 0); got != 0 {
		t.Errorf("idle availability = %v", got)
	}
	start, end := b.ReservePhase(set, 0, 2*units.MB)
	if start != 0 || end != units.FromMicros(20) {
		t.Errorf("phase [%v, %v], want [0, 20us]", start, end)
	}
	// Second phase queues behind the first on every member.
	if got := b.PhaseAvailability(set, 0); got != end {
		t.Errorf("availability after reserve = %v, want %v", got, end)
	}
	// A whole-machine phase waits for the set's links.
	if got := b.PhaseAvailability(b.Machine(), 0); got != end {
		t.Errorf("whole-machine availability = %v, want %v", got, end)
	}
	// A point-to-point send from a member queues behind the phase.
	var sentAt units.Time
	b.SendOnDim(2, 3, 0, units.MB, timeline.Callback(func() { sentAt = eng.Now() }), noop)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := end + units.FromMicros(10); sentAt != want {
		t.Errorf("send from a member left at %v, want %v", sentAt, want)
	}
	// Each member counts the phase's per-NPU traffic; the send counts
	// twice.
	if got, want := b.Stats().Traffic[0], 2*2*units.MB+2*units.MB; got != want {
		t.Errorf("Traffic[0] = %v, want %v", got, want)
	}
}

func TestSimRecvNilCallbackPanics(t *testing.T) {
	eng := timeline.New()
	b := NewBackend(eng, ring4())
	defer func() {
		if recover() == nil {
			t.Error("nil recv callback accepted")
		}
	}()
	b.SimRecv(0, 1, 0, nil)
}

func TestEstimateP2PMatchesUnloadedSend(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.FullyConnected, Size: 4, Bandwidth: units.GBps(200), Latency: units.Microsecond},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(100), Latency: units.Microsecond},
	)
	for src := 0; src < top.NumNPUs(); src += 3 {
		for dst := 0; dst < top.NumNPUs(); dst += 5 {
			if src == dst {
				continue
			}
			eng := timeline.New()
			b := NewBackend(eng, top)
			var at units.Time
			b.SimRecv(src, dst, 0, timeline.Callback(func() { at = eng.Now() }))
			b.SimSend(src, dst, 0, 4*units.MB, nil)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if est := b.EstimateP2P(src, dst, 4*units.MB); est != at {
				t.Fatalf("%d->%d: estimate %v != unloaded send %v", src, dst, est, at)
			}
		}
	}
}

// dimOneFlows is a flow controller that counts flows on dimension 1 only.
type dimOneFlows struct {
	started, finished [2]int
}

func (f *dimOneFlows) FlowStarted(dim int) (float64, bool) {
	f.started[dim]++
	return 1, dim == 1
}

func (f *dimOneFlows) FlowFinished(dim int) { f.finished[dim]++ }

// FlowFinished is owed exactly once per tracked flow and never for an
// untracked one, and an untracked flow queues no flow-done event — for
// point-to-point sends (with and without transit charging), subset phases
// and whole-machine phases alike.
func TestFlowFinishedOnlyForTrackedFlows(t *testing.T) {
	for _, transit := range []bool{false, true} {
		eng, b := allocTestBackend(t)
		b.SetTransitCharging(transit)
		fc := &dimOneFlows{}
		b.SetFlowController(fc)
		set := b.NewLinkSet([]int{0, 1, 2, 3})
		// Each operation on dim d, and the events it queues: a send queues
		// its delivery, a phase nothing, and a tracked flow its flow-done
		// event on top.
		ops := func(d, delivery, flowDone int) {
			t.Helper()
			base := eng.Pending()
			b.SendOnDim(0, 1+3*d, d, units.KB, nil, noop) // 0->1 on dim 0, 0->4 on dim 1
			if got := eng.Pending() - base; got != delivery+flowDone {
				t.Errorf("transit=%v: SendOnDim on dim %d queued %d events, want %d", transit, d, got, delivery+flowDone)
			}
			base = eng.Pending()
			b.ReservePhase(set, d, units.KB)
			if got := eng.Pending() - base; got != flowDone {
				t.Errorf("transit=%v: ReservePhase on dim %d queued %d events, want %d", transit, d, got, flowDone)
			}
			base = eng.Pending()
			b.ReservePhase(b.Machine(), d, units.KB)
			if got := eng.Pending() - base; got != flowDone {
				t.Errorf("transit=%v: whole-machine ReservePhase on dim %d queued %d events, want %d", transit, d, got, flowDone)
			}
		}
		ops(0, 1, 0)
		ops(1, 1, 1)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if fc.started != [2]int{3, 3} {
			t.Errorf("transit=%v: FlowStarted calls per dim = %v, want [3 3]", transit, fc.started)
		}
		if fc.finished != [2]int{0, 3} {
			t.Errorf("transit=%v: FlowFinished calls per dim = %v, want [0 3]: once per tracked flow, never on dim 0", transit, fc.finished)
		}
	}
}
