package garnet

import (
	"testing"

	"repro/internal/units"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Shape: []int{1}},
		{Shape: []int{4}, FlitBytes: -1},
	}
	for i, c := range bad {
		c.defaults()
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Config{Shape: []int{4, 4}}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleHopTiming(t *testing.T) {
	s, err := New(Config{Shape: []int{4}, FlitBytes: 16, LinkLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	// 64 bytes = 4 flits, one hop: 4 cycles serialization + 1 cycle hop.
	if err := s.Send(0, 1, 0, 64, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("message never delivered")
	}
	if s.Cycles() != 5 {
		t.Errorf("cycles = %d, want 5", s.Cycles())
	}
}

func TestWraparoundShortestPath(t *testing.T) {
	s, _ := New(Config{Shape: []int{8}, FlitBytes: 16})
	// 0 -> 7 should take the -1 direction: 1 hop.
	if err := s.Send(0, 7, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(100); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() != 2 { // 1 flit + 1 latency
		t.Errorf("cycles = %d, want 2", s.Cycles())
	}
}

func TestMultiHopWormholePipelining(t *testing.T) {
	s, _ := New(Config{Shape: []int{8}, FlitBytes: 16, LinkLatency: 1})
	// 3 hops, 16 flits: wormhole pipelines, so roughly flits + hops
	// cycles, far below store-and-forward's flits*hops.
	if err := s.Send(0, 3, 0, 256, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() < 18 || s.Cycles() > 24 {
		t.Errorf("cycles = %d, want ~flits(16)+hops(3) with latencies", s.Cycles())
	}
}

func TestCrossDimRejected(t *testing.T) {
	s, _ := New(Config{Shape: []int{4, 4}})
	// nodes 0 and 5 differ in both dims.
	if err := s.Send(0, 5, 0, 16, nil); err == nil {
		t.Error("cross-dimension message accepted")
	}
	if err := s.Send(0, 1, 7, 16, nil); err == nil {
		t.Error("bad dim accepted")
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	s, _ := New(Config{Shape: []int{4}, FlitBytes: 16, LinkLatency: 1})
	// Two messages from node 0 in the same direction share link (0,+1):
	// 4 flits each -> 8 cycles of serialization for the second tail.
	var done int
	for i := 0; i < 2; i++ {
		if err := s.Send(0, 1, 0, 64, func() { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("delivered %d", done)
	}
	if s.Cycles() != 9 { // 8 serialization + 1 hop latency
		t.Errorf("cycles = %d, want 9", s.Cycles())
	}
}

func TestAllReduceRing4(t *testing.T) {
	s, _ := New(Config{Shape: []int{4}, FlitBytes: 16, LinkLatency: 1})
	elapsed, cycles, err := s.AllReduce(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || elapsed <= 0 {
		t.Fatalf("no work simulated: %d cycles", cycles)
	}
	// Ring All-Reduce moves 2*(k-1)*S/k bytes per node over +1 links:
	// 6 steps of 1024 flits plus latency: >= 6144 cycles.
	if cycles < 6144 {
		t.Errorf("cycles = %d, want >= 6144", cycles)
	}
	if cycles > 7000 {
		t.Errorf("cycles = %d, unexpectedly slow (>7000)", cycles)
	}
}

func TestAllReduce3DTorusMatchesAnalyticalShape(t *testing.T) {
	// The speedup experiment's small configuration: 4x4x4 torus.
	s, _ := New(Config{Shape: []int{4, 4, 4}, FlitBytes: 16, LinkLatency: 1})
	elapsed, cycles, err := s.AllReduce(units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	// Flit-level serialization at 16 B/cycle, 1 GHz -> 16 GB/s links.
	// Hierarchical All-Reduce of 1 MB should land within 2x of the
	// first-order estimate sum_d 2*(k_d-1)/k_d * D_d / 16GB/s.
	est := 0.0
	d := 1e6
	for i := 0; i < 3; i++ {
		est += 2 * d * 3 / 4 / 16e9
		d /= 4
	}
	ratio := elapsed.Seconds() / est
	if ratio < 0.8 || ratio > 2.0 {
		t.Errorf("cycle-level time %v vs first-order estimate %.3fms (ratio %.2f)",
			elapsed, est*1e3, ratio)
	}
}

func TestDrainTimeout(t *testing.T) {
	s, _ := New(Config{Shape: []int{4}, FlitBytes: 16})
	if err := s.Send(0, 2, 0, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(3); err == nil {
		t.Error("expected drain timeout")
	}
}

// A drain whose last flit lands on the cycle that crosses the budget has
// delivered everything: it succeeds instead of reporting a timeout with no
// message in flight.
func TestDrainFinishingOnBudgetCycle(t *testing.T) {
	s, _ := New(Config{Shape: []int{4}, FlitBytes: 16})
	done := false
	if err := s.Send(0, 1, 0, 16, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(1); err != nil {
		t.Fatalf("Drain(1) = %v, want nil", err)
	}
	if !done || s.Cycles() != 2 { // 1 flit + 1 hop latency
		t.Errorf("delivered=%v after %d cycles, want delivered after 2", done, s.Cycles())
	}
}

// A warm simulator allocates only each message's record: the arrival slots
// and link queues keep their arrays from cycle to cycle. An All-Reduce runs
// dozens of cycles per message, so one object per message also bounds what
// a cycle may allocate: nothing.
func TestAllReduceAllocsPerMessage(t *testing.T) {
	s, _ := New(Config{Shape: []int{4, 4}, FlitBytes: 16, LinkLatency: 1})
	run := func() {
		if _, _, err := s.AllReduce(64 * units.KiB); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arrival slots and link queues
	sent, cycles := s.nextID, s.Cycles()
	run()
	msgs := float64(s.nextID - sent)
	if c := float64(s.Cycles() - cycles); c < 10*msgs {
		t.Fatalf("%.0f cycles for %.0f messages: too few cycles per message to tell per-cycle allocations apart", c, msgs)
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > msgs {
		t.Errorf("All-Reduce allocates %.0f objects for %.0f messages, want at most one per message", allocs, msgs)
	}
}

func TestAllReduceRejectsBadSize(t *testing.T) {
	s, _ := New(Config{Shape: []int{4}})
	if _, _, err := s.AllReduce(0); err == nil {
		t.Error("zero size accepted")
	}
}

// Send refuses a node outside the torus, which used to index past the link
// table, and a negative size, which used to become a train of negative
// length that never drained.
func TestSendRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		name          string
		src, dst, dim int
		size          units.ByteSize
	}{
		{"src past the last node", 100, 1, 0, 16},
		{"dst past the last node", 0, 101, 0, 16},
		{"both past the last node", 100, 101, 0, 16},
		{"src one past the last node", 4, 1, 0, 16},
		{"negative src", -1, 1, 0, 16},
		{"negative dst", 0, -3, 0, 16},
		{"negative size", 0, 1, 0, -100},
		{"size of minus one flit", 0, 1, 0, -16},
		{"size of minus one byte", 0, 1, 0, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := New(Config{Shape: []int{4}})
			if err := s.Send(c.src, c.dst, c.dim, c.size, nil); err == nil {
				t.Fatalf("Send(%d, %d, %d, %d) accepted", c.src, c.dst, c.dim, int64(c.size))
			}
			if err := s.Drain(100); err != nil {
				t.Errorf("a refused send left work behind: %v", err)
			}
		})
	}
	s, _ := New(Config{Shape: []int{4}})
	if err := s.Send(3, 0, 0, 0, nil); err != nil {
		t.Errorf("zero-byte send from the last node refused: %v", err)
	}
}

// Exact All-Reduce cycle counts and times, recorded from the all-links
// Step: the shape tests above only bound the cycles within 2x.
func TestAllReduceCyclesPinned(t *testing.T) {
	for _, c := range []struct {
		shape  []int
		lat    int
		size   units.ByteSize
		cycles uint64
		time   units.Time
	}{
		{[]int{4, 4, 4}, 1, units.MB, 123072, 123072 * units.Nanosecond},
		{[]int{5, 3}, 1, 300000, 35012, 35012 * units.Nanosecond},
		{[]int{6, 4}, 3, 64 * units.KiB, 7904, 7904 * units.Nanosecond},
		{[]int{7}, 2, 100001, 10740, 10740 * units.Nanosecond},
		{[]int{3, 5, 2}, 3, 12345, 1540, 1540 * units.Nanosecond},
	} {
		s, err := New(Config{Shape: c.shape, LinkLatency: c.lat})
		if err != nil {
			t.Fatal(err)
		}
		elapsed, cycles, err := s.AllReduce(c.size)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != c.cycles || elapsed != c.time {
			t.Errorf("%v latency %d, %d B: %d cycles, %v; want %d cycles, %v",
				c.shape, c.lat, int64(c.size), cycles, elapsed, c.cycles, c.time)
		}
	}
}
