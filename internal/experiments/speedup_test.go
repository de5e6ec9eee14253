package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/garnet"
	"repro/internal/units"
)

// TestGarnetMatchesAnalyticalTorus holds the cycle-level backend to the
// analytical one as a property: over seeded random tori of 1-3 dimensions
// (sizes 2-7) and random All-Reduce sizes, at a link latency of 1, 2 and
// 3 cycles against an analytical twin with the matching hop latency,
// garnet's simulated time must lie within 1 ns per ring step of the
// analytical backend's. A run has 2*sum(k-1) ring steps, and each step
// sends ceil(bytes/16) flits of 16 B at one flit per 1 ns cycle where the
// analytical backend charges bytes at 16 B/ns, so flit rounding alone
// moves a step by less than one cycle.
func TestGarnetMatchesAnalyticalTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level simulation of 1,200 tori")
	}
	for hop := 1; hop <= 3; hop++ {
		hop := hop
		t.Run(fmt.Sprintf("latency=%d", hop), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			lo, hi := math.Inf(1), math.Inf(-1)
			for c := 0; c < 400; c++ {
				shape := make([]int, 1+rng.Intn(3))
				steps := 0
				for i := range shape {
					shape[i] = 2 + rng.Intn(6)
					steps += 2 * (shape[i] - 1)
				}
				// Log-uniform from 1 B to 1 MiB.
				size := units.ByteSize(math.Exp2(20 * rng.Float64()))
				g, err := garnet.New(garnet.Config{Shape: shape, FlitBytes: 16, LinkLatency: hop, ClockGHz: 1})
				if err != nil {
					t.Fatal(err)
				}
				cycle, _, err := g.AllReduce(size)
				if err != nil {
					t.Fatal(err)
				}
				analytical, _, err := analyticalTorusAllReduce(shape, hop, size, 1)
				if err != nil {
					t.Fatal(err)
				}
				perStep := (cycle - analytical).Nanos() / float64(steps)
				lo, hi = math.Min(lo, perStep), math.Max(hi, perStep)
				if perStep < -1 || perStep > 1 {
					t.Errorf("%v, %d B: garnet %v, analytical %v: %+.3f ns per ring step over %d steps, want within 1 ns",
						shape, int64(size), cycle, analytical, perStep, steps)
				}
			}
			t.Logf("garnet minus analytical: %+.3f to %+.3f ns per ring step", lo, hi)
		})
	}
}
