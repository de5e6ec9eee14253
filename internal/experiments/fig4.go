package experiments

import (
	"math"

	"repro/internal/collective"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Fig. 4 — validation of the analytical network backend against real
// system measurements: All-Reduce collectives of 64 MB to 1.5 GB on rings
// of 4 and 16 V100 GPUs connected by 150 GB/s NVLink running NCCL v2.4.6.
//
// Substitution: we have no V100 testbed, so the "real system" is a
// deterministic reference model of a NCCL ring All-Reduce with the
// overheads the analytical backend deliberately ignores — per-step kernel
// launch/protocol latency and sub-peak link efficiency, both taken from
// public NCCL/NVLink characterizations. The experiment exercises exactly
// the comparison the paper makes: an ideal bandwidth-term-only model
// against a system with real-world overheads, expecting a small mean error
// because these collectives are firmly bandwidth-bound.

// Fig4Row is one bar pair of the figure.
type Fig4Row struct {
	NPUs       int
	Size       units.ByteSize
	Reference  units.Time // simulated "real system"
	Analytical units.Time // analytical backend
	ErrorPct   float64
}

// Fig4Result is the whole validation experiment.
type Fig4Result struct {
	Rows []Fig4Row
	// MeanAbsErrorPct is the figure's headline: the paper reports 5%.
	MeanAbsErrorPct float64
}

// NCCL reference-model constants.
const (
	// nvlinkPerDirection is the paper's quoted NVLink rate.
	nvlinkPerDirection = 150 // GB/s
	// ncclLinkEfficiency is the fraction of peak NVLink bandwidth NCCL's
	// ring protocol sustains for large messages.
	ncclLinkEfficiency = 0.97
	// ncclStepOverhead is the per-ring-step launch/synchronization cost.
	ncclStepOverhead = 2 * units.Microsecond
)

// referenceAllReduce models the measured system: a NCCL ring All-Reduce of
// size s over k GPUs moves 2·S·(k−1)/k bytes per GPU at the effective link
// rate, plus a fixed overhead for each of its 2(k−1) steps.
func referenceAllReduce(size units.ByteSize, k int) units.Time {
	bytes := 2 * float64(size) * float64(k-1) / float64(k)
	bw := nvlinkPerDirection * 1e9 * ncclLinkEfficiency
	steps := 2 * (k - 1)
	return units.FromSeconds(bytes/bw) + units.Time(steps)*ncclStepOverhead
}

// nvlinkRing builds the analytical twin of a k-GPU NVLink ring. The
// dimension bandwidth is the NPU's total shared capacity, so the
// per-direction 150 GB/s NVLink becomes 300 GB/s.
func nvlinkRing(k int) (*topology.Topology, error) {
	return topology.New(topology.Dim{
		Kind:      topology.Ring,
		Size:      k,
		Bandwidth: units.GBps(2 * nvlinkPerDirection),
		Latency:   0,
	})
}

// analyticalAllReduce runs the simulator's collective engine on a ring of
// k NPUs.
func analyticalAllReduce(size units.ByteSize, k int) (units.Time, error) {
	top, err := nvlinkRing(k)
	if err != nil {
		return 0, err
	}
	res, _, err := runEngine(top, collective.AllReduce, size, 64, collective.Baseline)
	if err != nil {
		return 0, err
	}
	return res.Duration(), nil
}

// Fig4 runs the validation sweep: the paper's six sizes on 4 and 16 NPUs.
func Fig4(o Options) (*Fig4Result, error) {
	ks := []int{4, 16}
	sizes := []units.ByteSize{
		64 * units.MB, 96 * units.MB, 128 * units.MB, 192 * units.MB,
		750 * units.MB, 1500 * units.MB,
	}
	spec := sweep.Spec[Fig4Row]{
		Name: "fig4",
		Axes: []sweep.Axis{intAxis("npus", ks), sizeAxis("size", sizes)},
		Cell: func(pt sweep.Point) (Fig4Row, error) {
			k, s := ks[pt.Index("npus")], sizes[pt.Index("size")]
			ref := referenceAllReduce(s, k)
			ana, err := analyticalAllReduce(s, k)
			if err != nil {
				return Fig4Row{}, err
			}
			errPct := 100 * (ana.Seconds() - ref.Seconds()) / ref.Seconds()
			return Fig4Row{NPUs: k, Size: s, Reference: ref, Analytical: ana, ErrorPct: errPct}, nil
		},
		Fingerprint: func(pt sweep.Point) string {
			top, err := nvlinkRing(ks[pt.Index("npus")])
			if err != nil {
				return ""
			}
			// The reference model is a pure function of (k, size), so the
			// engine fingerprint identifies the whole row; the prefix keeps
			// fig4 rows from sharing with bare engine results.
			return "fig4|" + engineFingerprint(top, collective.AllReduce, sizes[pt.Index("size")], 64, collective.Baseline)
		},
	}
	res, err := sweep.Run(spec, o.Exec)
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{Rows: res.Values()}
	var absSum float64
	for _, r := range out.Rows {
		absSum += math.Abs(r.ErrorPct)
	}
	out.MeanAbsErrorPct = absSum / float64(len(out.Rows))
	return out, nil
}
