package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/garnet"
	"repro/internal/units"
)

// TestGarnetMatchesAnalyticalTorus holds the cycle-level backend to the
// analytical one as a property: over seeded random tori of 1-3 dimensions
// (sizes 2-7) and random sizes, at a link latency of 1, 2 and 3 cycles,
// garnet playing the Reduce-Scatter, All-Gather or All-Reduce schedule of
// the torus's analytical twin must finish within 1 ns per ring step of the
// analytical backend running the same collective on the twin. A run has
// sum(k-1) ring steps per pass, two passes for All-Reduce, and each step
// sends ceil(bytes/16) flits of 16 B at one flit per 1 ns cycle where the
// analytical backend charges bytes at 16 B/ns, so flit rounding alone
// moves a step by less than one cycle.
func TestGarnetMatchesAnalyticalTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level simulation of 3,600 collectives")
	}
	for hop := 1; hop <= 3; hop++ {
		hop := hop
		t.Run(fmt.Sprintf("latency=%d", hop), func(t *testing.T) {
			t.Parallel()
			for _, op := range []collective.Op{collective.ReduceScatter, collective.AllGather, collective.AllReduce} {
				op := op
				t.Run(op.String(), func(t *testing.T) {
					t.Parallel()
					garnetMatchesAnalytical(t, op, hop)
				})
			}
		})
	}
}

// garnetMatchesAnalytical runs TestGarnetMatchesAnalyticalTorus's 400
// seeded tori for one op and link latency.
func garnetMatchesAnalytical(t *testing.T, op collective.Op, hop int) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := 0; c < 400; c++ {
		shape := make([]int, 1+rng.Intn(3))
		npus, steps := 1, 0
		for i := range shape {
			shape[i] = 2 + rng.Intn(6)
			npus *= shape[i]
			steps += shape[i] - 1
		}
		if op == collective.AllReduce {
			steps *= 2
		}
		// Log-uniform up to 1 MiB, from 1 B, or from one byte per member
		// for All-Gather.
		least := 1.0
		if op == collective.AllGather {
			least = float64(npus)
		}
		size := units.ByteSize(least * math.Exp2(rng.Float64()*math.Log2((1<<20)/least)))
		sched, err := torusSchedule(shape, hop, op, size)
		if err != nil {
			t.Fatal(err)
		}
		g, err := garnet.New(garnet.Config{Shape: shape, FlitBytes: 16, LinkLatency: hop, ClockGHz: 1})
		if err != nil {
			t.Fatal(err)
		}
		cycle, _, err := g.Play(sched)
		if err != nil {
			t.Fatal(err)
		}
		top, err := torusTopo(shape, hop)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := runEngine(top, op, size, 1, collective.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		analytical := res.Duration()
		perStep := (cycle - analytical).Nanos() / float64(steps)
		lo, hi = math.Min(lo, perStep), math.Max(hi, perStep)
		if perStep < -1 || perStep > 1 {
			t.Errorf("%v, %d B: garnet %v, analytical %v: %+.3f ns per ring step over %d steps, want within 1 ns",
				shape, int64(size), cycle, analytical, perStep, steps)
		}
	}
	t.Logf("garnet minus analytical: %+.3f to %+.3f ns per ring step", lo, hi)
}
