package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/collective"
	"repro/internal/garnet"
	"repro/internal/topology"
	"repro/internal/units"
)

// Section IV-C speedup study — a 1 MB All-Reduce on a 3D torus, simulated
// by the cycle-level backend (the Garnet substitute) and by the analytical
// backend. The paper reports 21.42 minutes vs 1.70 seconds (756x) on
// 4x4x4, and that only the analytical backend reaches 16x16x16 (3.14 s).
// Absolute wall-clock depends on host and implementation; the reproduced
// claim is the orders-of-magnitude gap and the scalability headroom.

// SpeedupResult compares the two backends.
type SpeedupResult struct {
	Size units.ByteSize

	// 4x4x4 torus, both backends.
	SmallShape          []int
	CycleWall           time.Duration // cycle-level wall-clock
	CycleSimTime        units.Time    // simulated collective time (cycle)
	CycleCycles         uint64
	AnalyticalWall      time.Duration // median of analyticalRepeats runs
	AnalyticalSimTime   units.Time
	SpeedupSmall        float64 // CycleWall / AnalyticalWall
	SimTimeAgreementPct float64 // |cycle - analytical| / cycle, percent

	// 16x16x16 torus, analytical only.
	LargeShape          []int
	AnalyticalWallLarge time.Duration // median of analyticalRepeats runs
	AnalyticalSimLarge  units.Time
}

// garnetLinkGBps is the cycle simulator's per-direction link rate:
// 16 bytes/flit at 1 GHz.
const garnetLinkGBps = 16.0

// torusTopo builds the analytical twin of a garnet torus clocked at 1 GHz
// whose links take hop cycles: each ring dimension's shared capacity is
// twice the per-direction link rate, and its hop latency is hop ns.
func torusTopo(shape []int, hop int) (*topology.Topology, error) {
	dims := make([]topology.Dim, len(shape))
	for i, k := range shape {
		dims[i] = topology.Dim{
			Kind:      topology.Ring,
			Size:      k,
			Bandwidth: units.GBps(2 * garnetLinkGBps),
			Latency:   units.Time(hop) * units.Nanosecond,
		}
	}
	return topology.New(dims...)
}

// torusSchedule returns op's message-level schedule over the whole
// analytical twin of the torus (torusTopo), for garnet to play.
func torusSchedule(shape []int, hop int, op collective.Op, size units.ByteSize) ([]topology.Step, error) {
	top, err := torusTopo(shape, hop)
	if err != nil {
		return nil, err
	}
	return collective.MessageSchedule(top, op, size, collective.FullMachine(top))
}

// analyticalRepeats is how many times Speedup times each analytical run;
// it reports their median. One run takes tens of microseconds, so a single
// reading swings with the host: on a 2-core VM the first 4x4x4 run in a
// process took 64-79 us, and the median of five 13-35 us.
const analyticalRepeats = 5

// analyticalTorusAllReduce simulates the All-Reduce on the analytical twin
// of the torus with 1-cycle links, analyticalRepeats times. It returns the
// simulated time and the median wall time of the runs.
func analyticalTorusAllReduce(shape []int, size units.ByteSize) (units.Time, time.Duration, error) {
	top, err := torusTopo(shape, 1)
	if err != nil {
		return 0, 0, err
	}
	var sim units.Time
	walls := make([]time.Duration, analyticalRepeats)
	for i := range walls {
		start := time.Now()
		// A single chunk mirrors the cycle driver's bulk-synchronous step
		// barriers, so the two backends simulate the same schedule and
		// their simulated times are directly comparable.
		res, _, err := runEngine(top, collective.AllReduce, size, 1, collective.Baseline)
		if err != nil {
			return 0, 0, err
		}
		walls[i] = time.Since(start)
		sim = res.Duration()
	}
	slices.Sort(walls)
	return sim, walls[analyticalRepeats/2], nil
}

// Speedup runs the comparison. size is typically 1 MB (the paper's
// setting); tests may shrink it to bound runtime. The three runs are timed
// one after another on the calling goroutine, whatever o.Exec says, so
// they never contend for cores with each other: a cycle-level run beside
// an analytical one would distort the headline speedup.
func Speedup(size units.ByteSize, o Options) (*SpeedupResult, error) {
	out := &SpeedupResult{
		Size:       size,
		SmallShape: []int{4, 4, 4},
		LargeShape: []int{16, 16, 16},
	}
	steps, err := torusSchedule(out.SmallShape, 1, collective.AllReduce, size)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := garnet.New(garnet.Config{Shape: out.SmallShape, FlitBytes: 16, LinkLatency: 1})
	if err != nil {
		return nil, err
	}
	out.CycleSimTime, out.CycleCycles, err = g.Play(steps)
	if err != nil {
		return nil, fmt.Errorf("cycle backend: %w", err)
	}
	out.CycleWall = time.Since(start)
	out.AnalyticalSimTime, out.AnalyticalWall, err = analyticalTorusAllReduce(out.SmallShape, size)
	if err != nil {
		return nil, err
	}
	out.AnalyticalSimLarge, out.AnalyticalWallLarge, err = analyticalTorusAllReduce(out.LargeShape, size)
	if err != nil {
		return nil, err
	}
	if out.AnalyticalWall > 0 {
		out.SpeedupSmall = float64(out.CycleWall) / float64(out.AnalyticalWall)
	}
	if out.CycleSimTime > 0 {
		diff := out.CycleSimTime - out.AnalyticalSimTime
		if diff < 0 {
			diff = -diff
		}
		out.SimTimeAgreementPct = 100 * float64(diff) / float64(out.CycleSimTime)
	}
	return out, nil
}
