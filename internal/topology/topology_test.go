package topology

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestBlockKindStrings(t *testing.T) {
	cases := []struct {
		k          DimModel
		short, alg string
	}{
		{Ring, "R", "Ring"},
		{FullyConnected, "FC", "Direct"},
		{Switch, "SW", "HalvingDoubling"},
	}
	for _, c := range cases {
		if c.k.String() != c.short {
			t.Errorf("%v.String() = %q, want %q", c.k, c.k.String(), c.short)
		}
		if c.k.CollectiveName() != c.alg {
			t.Errorf("%v.CollectiveName() = %q, want %q (Table I)", c.k, c.k.CollectiveName(), c.alg)
		}
	}
}

func TestDimHops(t *testing.T) {
	ring8 := Dim{Kind: Ring, Size: 8}
	if got := ring8.Hops(0, 1); got != 1 {
		t.Errorf("ring hops(0,1) = %d", got)
	}
	if got := ring8.Hops(0, 7); got != 1 {
		t.Errorf("ring hops(0,7) = %d, want 1 (wraparound)", got)
	}
	if got := ring8.Hops(0, 4); got != 4 {
		t.Errorf("ring hops(0,4) = %d, want 4", got)
	}
	if got := ring8.Hops(3, 3); got != 0 {
		t.Errorf("ring hops(3,3) = %d, want 0", got)
	}
	fc := Dim{Kind: FullyConnected, Size: 16}
	if got := fc.Hops(2, 9); got != 1 {
		t.Errorf("fc hops = %d, want 1", got)
	}
	sw := Dim{Kind: Switch, Size: 16}
	if got := sw.Hops(2, 9); got != 2 {
		t.Errorf("switch hops = %d, want 2", got)
	}
}

// At 1 ns a link, a phase's latency counts its collective's steps times
// the links each step crosses.
func TestDimSteps(t *testing.T) {
	cases := []struct {
		d     Dim
		links int // steps times the links each crosses
	}{
		{Dim{Kind: Ring, Size: 8}, 7},
		{Dim{Kind: FullyConnected, Size: 8}, 1},
		{Dim{Kind: Switch, Size: 8}, 2 * 3},
		{Dim{Kind: Switch, Size: 5}, 2 * 3}, // ceil(log2(5)) steps
		{Dim{Kind: Ring, Size: 2}, 1},
	}
	for _, c := range cases {
		c.d.Latency = units.Nanosecond
		if got, want := c.d.PhaseLatency(c.d.Size), units.Time(c.links)*units.Nanosecond; got != want {
			t.Errorf("%v: PhaseLatency(%d) = %v, want %v", c.d.Format(), c.d.Size, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("expected error for empty topology")
	}
	if _, err := New(Dim{Kind: Ring, Size: 1}); err == nil {
		t.Error("expected error for k=1")
	}
	if _, err := New(Dim{Kind: Ring, Size: 4, Bandwidth: -1}); err == nil {
		t.Error("expected error for negative bandwidth")
	}
	if _, err := New(Dim{Kind: Ring, Size: 4, Latency: -1}); err == nil {
		t.Error("expected error for negative latency")
	}
}

// randomDim draws a valid dimension using any of the registered building
// blocks (parameterized blocks get matching sizes).
func randomDim(rng *rand.Rand) Dim {
	switch rng.Intn(6) {
	case 0:
		return Dim{Kind: Ring, Size: rng.Intn(7) + 2}
	case 1:
		return Dim{Kind: FullyConnected, Size: rng.Intn(7) + 2}
	case 2:
		return Dim{Kind: Switch, Size: rng.Intn(7) + 2}
	case 3:
		return Dim{Kind: Mesh, Size: rng.Intn(7) + 2}
	case 4:
		a, b := rng.Intn(3)+2, rng.Intn(3)+2
		return Dim{Kind: Torus2D(a, b), Size: a * b}
	default:
		return Dim{Kind: OversubscribedSwitch(rng.Intn(4) + 1), Size: rng.Intn(7) + 2}
	}
}

// coordsRebuildRanks checks that the digits WalkPositions yields for ranks
// a and b are DimPos's, and that each rank's digits, weighted by
// DimStride, sum back to the rank.
func coordsRebuildRanks(top *Topology, a, b int) error {
	w := top.WalkPositions(a, b)
	ra, rb, dims := 0, 0, 0
	for dim, pa, pb, ok := w.Next(); ok; dim, pa, pb, ok = w.Next() {
		if dim != dims || pa != top.DimPos(a, dim) || pb != top.DimPos(b, dim) {
			return fmt.Errorf("%s: ranks %d, %d walk to dim %d positions %d, %d; DimPos gives %d, %d",
				top, a, b, dim, pa, pb, top.DimPos(a, dim), top.DimPos(b, dim))
		}
		ra += pa * top.DimStride(dim)
		rb += pb * top.DimStride(dim)
		dims++
	}
	if dims != top.NumDims() || ra != a || rb != b {
		return fmt.Errorf("%s: ranks %d, %d rebuild to %d, %d over %d dims", top, a, b, ra, rb, dims)
	}
	return nil
}

// Every rank of the Table II Conv-4D machine walks to DimPos's digits and
// rebuilds through DimStride.
func TestCoordRankRoundTrip(t *testing.T) {
	top := MustNew(
		Dim{Kind: Ring, Size: 2},
		Dim{Kind: FullyConnected, Size: 8},
		Dim{Kind: Ring, Size: 8},
		Dim{Kind: Switch, Size: 4},
	)
	if top.NumNPUs() != 512 {
		t.Fatalf("NumNPUs = %d, want 512", top.NumNPUs())
	}
	for rank := 0; rank < top.NumNPUs(); rank++ {
		if err := coordsRebuildRanks(top, rank, top.NumNPUs()-1-rank); err != nil {
			t.Fatal(err)
		}
	}
}

// Random ranks of random machines walk to DimPos's digits and rebuild
// through DimStride.
func TestCoordRankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := rng.Intn(4) + 1
		dims := make([]Dim, nd)
		for i := range dims {
			dims[i] = randomDim(rng)
		}
		top := MustNew(dims...)
		err := coordsRebuildRanks(top, rng.Intn(top.NumNPUs()), rng.Intn(top.NumNPUs()))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggregateBandwidth(t *testing.T) {
	top := MustNew(
		Dim{Kind: Ring, Size: 2, Bandwidth: units.GBps(250)},
		Dim{Kind: FullyConnected, Size: 8, Bandwidth: units.GBps(200)},
		Dim{Kind: Ring, Size: 8, Bandwidth: units.GBps(100)},
		Dim{Kind: Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	// Conv-4D from Table II drives 600 GB/s per NPU.
	if got := top.AggregateBandwidth(); got != units.GBps(600) {
		t.Errorf("AggregateBandwidth = %v, want 600GB/s", got)
	}
}

func TestStringNotation(t *testing.T) {
	top := MustNew(
		Dim{Kind: Ring, Size: 4},
		Dim{Kind: FullyConnected, Size: 2},
		Dim{Kind: Switch, Size: 2},
	)
	if got := top.String(); got != "R(4)_FC(2)_SW(2)" {
		t.Errorf("String() = %q", got)
	}
}
