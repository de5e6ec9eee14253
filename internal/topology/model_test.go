package topology

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestRegisteredBlockNotationRoundTrips(t *testing.T) {
	cases := []string{
		"R(4)_FC(2)_SW(2)",
		"M(8)",
		"T2D(4,2)",
		"SW(16,4)",
		"T2D(4,4)_SW(8,2)",
		"M(4)_T2D(2,2)_SW(8)",
	}
	for _, spec := range cases {
		top, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := top.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q, want round trip", spec, got)
		}
	}
}

func TestParseLongNamesAndSizes(t *testing.T) {
	top, err := Parse("Mesh(6)_Torus2D(3,4)_Switch(8,2)")
	if err != nil {
		t.Fatal(err)
	}
	if top.Dims[0].Kind != Mesh || top.Dims[0].Size != 6 {
		t.Errorf("dim 1 = %v(%d)", top.Dims[0].Kind, top.Dims[0].Size)
	}
	if top.Dims[1].Kind != Torus2D(3, 4) || top.Dims[1].Size != 12 {
		t.Errorf("dim 2 = %v(%d), want T2D(3,4) size 12", top.Dims[1].Kind, top.Dims[1].Size)
	}
	if top.Dims[2].Kind != OversubscribedSwitch(2) || top.Dims[2].Size != 8 {
		t.Errorf("dim 3 = %v(%d), want SW(8,2)", top.Dims[2].Kind, top.Dims[2].Size)
	}
	if top.NumNPUs() != 6*12*8 {
		t.Errorf("NumNPUs = %d", top.NumNPUs())
	}
}

func TestUnknownBlockIsConstructorError(t *testing.T) {
	if _, err := Parse("Hypercube(8)"); err == nil {
		t.Error("Parse accepted unregistered block")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("error should list registered blocks, got %v", err)
	}
	if _, _, err := ModelFor("nope", []int{4}); err == nil {
		t.Error("ModelFor accepted unregistered block")
	}
	if _, err := New(Dim{Kind: nil, Size: 4}); err == nil {
		t.Error("New accepted a dim with no model")
	}
}

func TestBlockArgumentValidation(t *testing.T) {
	bad := []string{
		"T2D(4)",      // torus needs two axes
		"T2D(1,4)",    // axis < 2
		"SW(8,0)",     // oversubscription < 1
		"SW(8,2,3)",   // too many args
		"R(4,4)",      // ring takes one arg
		"M(1)",        // k < 2
		"T2D(2,2,2)",  // too many args
		"Torus2D(,2)", // malformed
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted invalid block", spec)
		}
	}
	// A torus dim whose Size disagrees with its axes is rejected by New.
	if _, err := New(Dim{Kind: Torus2D(4, 4), Size: 8}); err == nil {
		t.Error("New accepted torus with mismatched size")
	}
}

func TestMeshHopsAndSteps(t *testing.T) {
	m := Dim{Kind: Mesh, Size: 8}
	if got := m.Hops(0, 7); got != 7 {
		t.Errorf("mesh hops(0,7) = %d, want 7 (no wraparound)", got)
	}
	if got := m.Hops(7, 0); got != 7 {
		t.Errorf("mesh hops(7,0) = %d, want 7", got)
	}
	if got := m.Hops(2, 5); got != 3 {
		t.Errorf("mesh hops(2,5) = %d, want 3", got)
	}
	// Dilation-2 embedding: k-1 steps of at most 2 hops each.
	m.Latency = units.Nanosecond
	if got := m.PhaseLatency(8); got != 14*units.Nanosecond {
		t.Errorf("mesh phase latency = %v, want 14ns", got)
	}
}

func TestMeshEmbeddingDilation(t *testing.T) {
	for k := 2; k <= 9; k++ {
		order := meshOrder(k)
		if len(order) != k {
			t.Fatalf("k=%d: order %v has wrong length", k, order)
		}
		seen := make(map[int]bool)
		maxHop := 0
		for i, p := range order {
			if seen[p] {
				t.Fatalf("k=%d: order %v repeats %d", k, order, p)
			}
			seen[p] = true
			q := order[(i+1)%k]
			h := p - q
			if h < 0 {
				h = -h
			}
			if h > maxHop {
				maxHop = h
			}
		}
		if maxHop > meshDilation(k) {
			t.Errorf("k=%d: embedding %v has dilation %d, want <= %d", k, order, maxHop, meshDilation(k))
		}
	}
}

func TestTorusHopsAndSteps(t *testing.T) {
	d := Dim{Kind: Torus2D(4, 4), Size: 16}
	// Position p = x + 4y. (0,0) -> (2,3): 2 x-hops + 1 y-hop (wraparound).
	if got := d.Hops(0, 2+4*3); got != 3 {
		t.Errorf("torus hops = %d, want 3", got)
	}
	if got := d.Hops(0, 1); got != 1 {
		t.Errorf("torus hops(0,1) = %d, want 1", got)
	}
	// (4-1)+(4-1) = 6 ring steps of one link each, and the ring fallback's
	// k-1 on an irregular subgroup.
	d.Latency = units.Nanosecond
	if got := d.PhaseLatency(16); got != 6*units.Nanosecond {
		t.Errorf("torus phase latency = %v, want 6ns", got)
	}
	if got := d.PhaseLatency(5); got != 4*units.Nanosecond {
		t.Errorf("torus phase latency on 5 members = %v, want the ring fallback's 4ns", got)
	}
}

func TestOversubscribedSwitchBandwidth(t *testing.T) {
	plain := Dim{Kind: Switch, Size: 8, Bandwidth: units.GBps(400)}
	tapered := Dim{Kind: OversubscribedSwitch(4), Size: 8, Bandwidth: units.GBps(400)}
	if plain.EffectiveBandwidth() != units.GBps(400) {
		t.Errorf("plain switch derated: %v", plain.EffectiveBandwidth())
	}
	if tapered.EffectiveBandwidth() != units.GBps(100) {
		t.Errorf("SW(8,4) effective = %v, want 100GB/s", tapered.EffectiveBandwidth())
	}
	if got := tapered.TransferTime(100 * units.MB); got != 4*plain.TransferTime(100*units.MB) {
		t.Errorf("tapered transfer %v, want 4x plain %v", got, plain.TransferTime(100*units.MB))
	}
	top := MustNew(plain, tapered)
	if got := top.AggregateBandwidth(); got != units.GBps(500) {
		t.Errorf("aggregate = %v, want 500GB/s (derated)", got)
	}
}

func TestMeshBandwidthPaysDilation(t *testing.T) {
	// The line's bisection is half the ring's: at k >= 3 the embedded-ring
	// collective sees half the configured bandwidth. A 2-NPU mesh is just
	// an adjacent pair and is not derated.
	mesh := Dim{Kind: Mesh, Size: 8, Bandwidth: units.GBps(200)}
	if got := mesh.EffectiveBandwidth(); got != units.GBps(100) {
		t.Errorf("M(8) effective = %v, want 100GB/s (dilation 2)", got)
	}
	pair := Dim{Kind: Mesh, Size: 2, Bandwidth: units.GBps(200)}
	if got := pair.EffectiveBandwidth(); got != units.GBps(200) {
		t.Errorf("M(2) effective = %v, want undeprecated 200GB/s", got)
	}
	ring := Dim{Kind: Ring, Size: 8, Bandwidth: units.GBps(200)}
	if 2*ring.TransferTime(100*units.MB) != mesh.TransferTime(100*units.MB) {
		t.Errorf("mesh transfer %v, want 2x ring %v", mesh.TransferTime(100*units.MB), ring.TransferTime(100*units.MB))
	}
}

func TestTransitPositions(t *testing.T) {
	ring := Ring.TransitPositions(nil, 6, 1, 8) // wrap: 6 -> 7 -> 0 -> 1
	if want := []int{6, 7, 0, 1}; !slices.Equal(ring, want) {
		t.Fatalf("ring transit = %v, want %v", ring, want)
	}
	// The path is appended after what the buffer already holds.
	mesh := Mesh.TransitPositions([]int{9}, 5, 2, 8) // line: 5 -> 4 -> 3 -> 2
	if want := []int{9, 5, 4, 3, 2}; !slices.Equal(mesh, want) {
		t.Fatalf("mesh transit = %v, want %v", mesh, want)
	}
	if p := Switch.TransitPositions([]int{9}, 0, 3, 8); !slices.Equal(p, []int{9}) {
		t.Errorf("switch transit = %v, want the buffer unchanged", p)
	}
	// Torus transit is dimension-ordered (x ring along the source row, then
	// y ring along the destination column) and its length matches Hops+1.
	tor := Torus2D(4, 4)
	path := tor.TransitPositions([]int{9}, 0, 2+4*3, 16)
	if want := []int{9, 0, 1, 2, 2 + 4*3}; !slices.Equal(path, want) {
		t.Errorf("torus transit = %v, want %v", path, want)
	}
	if len(path)-1 != tor.Hops(0, 2+4*3, 16)+1 {
		t.Errorf("torus transit %v has %d positions, want hops+1 = %d", path[1:], len(path)-1, tor.Hops(0, 2+4*3, 16)+1)
	}
}

// TestPhaseScheduleTrafficConservation: for every block, the message-level
// schedule's total per-member sent bytes must equal the aggregate model's
// per-phase traffic (half of sent+received), so the two execution paths
// serialize identical byte counts.
func TestPhaseScheduleTrafficConservation(t *testing.T) {
	const d = units.ByteSize(1 << 20)
	for _, m := range BuiltinModels() {
		k := 8
		if tm, ok := m.(torus2DModel); ok {
			k = tm.A * tm.B
		}
		for _, op := range []PhaseKind{PhaseReduceScatter, PhaseAllGather} {
			sched := m.PhaseSchedule(op, k, d)
			sent := make([]units.ByteSize, k)
			recv := make([]units.ByteSize, k)
			for _, step := range sched {
				for _, x := range step {
					if x.Src == x.Dst {
						t.Fatalf("%v/%v: self transfer %+v", m, op, x)
					}
					if x.Src < 0 || x.Src >= k || x.Dst < 0 || x.Dst >= k {
						t.Fatalf("%v/%v: transfer out of range %+v", m, op, x)
					}
					sent[x.Src] += x.Bytes
					recv[x.Dst] += x.Bytes
				}
			}
			want := genericPhaseTraffic(op, d, k)
			for i := 0; i < k; i++ {
				if got := sent[i] + recv[i]; got != want {
					t.Errorf("%v %v member %d: schedule moves %d bytes, aggregate model says %d",
						m, op, i, got, want)
				}
			}
		}
	}
}
