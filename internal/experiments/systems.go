// Package experiments implements one driver per table and figure of the
// paper's evaluation (Section IV validation and Section V case studies).
// Each driver returns structured rows so that tests can assert the paper's
// qualitative claims and cmd/paper can print the regenerated artifacts.
//
// Bandwidth convention: a topology dimension's Bandwidth is the NPU's total
// (bidirectional, shared) capacity on that dimension, matching the paper's
// Table II/IV numbers: a ring phase that sends and receives D(k-1) bytes
// serializes 2·D·(k−1) bytes through it. The paper's Fig. 4 quotes NVLink
// as 150 GB/s per direction, so the validation experiment configures
// 2 x 150 GB/s of shared capacity.
package experiments

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/topology"
	"repro/internal/units"
)

// hopLatency is the uniform per-hop link latency used in the case studies;
// the paper's collectives are 100 MB–1 GB and bandwidth-bound, so the
// latency term is second-order.
const hopLatency = 500 * units.Nanosecond

// caseStudyChunks is the case studies' collective pipelining depth.
// Themis's per-chunk balancing needs at least ~32 chunks of granularity on
// 512-NPU systems; fewer chunks visibly degrade its packing (verified
// empirically), so the reduced mode keeps 32.
const caseStudyChunks = 32

// localHBM is the local memory of the case studies' NPU, an A100 (Section V
// preamble): 2039 GB/s of HBM at 1 µs.
var localHBM = memory.LocalModel{Latency: units.Microsecond, Bandwidth: units.GBps(2039)}

// System is a named machine configuration from Table II.
type System struct {
	Name string
	Top  *topology.Topology
}

// fabricSpec declares one named machine in the paper's shape notation
// (Section IV-B) with its per-dimension bandwidths in GB/s.
type fabricSpec struct {
	name     string
	notation string
	gbps     []float64
}

// buildFabrics builds named machines from shape notation through the block
// table at hopLatency, the path cmd/astrasim users take.
func buildFabrics(specs ...fabricSpec) []System {
	out := make([]System, len(specs))
	for i, s := range specs {
		top, err := topology.ParseWithBandwidth(s.notation, s.gbps, hopLatency)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		out[i] = System{Name: s.name, Top: top}
	}
	return out
}

// TableII returns the six 512-NPU systems of Table II: three Switch(512)
// wafers, a two-level switched wafer and the conventional 3-D and 4-D
// machines.
func TableII() []System {
	return buildFabrics([]fabricSpec{
		{"W-1D-350", "SW(512)", []float64{350}},
		{"W-1D-500", "SW(512)", []float64{500}},
		{"W-1D-600", "SW(512)", []float64{600}},
		{"W-2D-500", "SW(32)_SW(16)", []float64{250, 250}},
		{"Conv-3D", "R(16)_FC(8)_SW(4)", []float64{200, 100, 50}},
		{"Conv-4D", "R(2)_FC(8)_R(8)_SW(4)", []float64{250, 200, 100, 50}},
	}...)
}

// ScalingSystems returns the seven systems of Table IV / Fig. 9(b): the
// Conv-4D shape with its Dim 1 (on-chip) bandwidth raised to 1000 GB/s to
// model a wafer-class first dimension (Section V-A-2), as the 512-NPU base,
// conventional scale-out (growing the NIC dimension) and wafer scale-up
// (growing the on-chip dimension).
func ScalingSystems() []System {
	scaled := func(name string, dim1, dim4 int) fabricSpec {
		return fabricSpec{name, fmt.Sprintf("R(%d)_FC(8)_R(8)_SW(%d)", dim1, dim4), []float64{1000, 200, 100, 50}}
	}
	return buildFabrics(
		scaled("Base-512", 2, 4),
		scaled("Conv-1024", 2, 8),
		scaled("Conv-2048", 2, 16),
		scaled("Conv-4096", 2, 32),
		scaled("W-1024", 4, 4),
		scaled("W-2048", 8, 4),
		scaled("W-4096", 16, 4),
	)
}

// FindSystem returns the named system from a list.
func FindSystem(systems []System, name string) (System, error) {
	for _, s := range systems {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("experiments: unknown system %q", name)
}
