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

	"repro/internal/compute"
	"repro/internal/topology"
	"repro/internal/units"
)

// hopLatency is the uniform per-hop link latency used in the case studies;
// the paper's collectives are 100 MB–1 GB and bandwidth-bound, so the
// latency term is second-order.
const hopLatency = 500 * units.Nanosecond

// npuModel returns the case studies' NPU: 234 TFLOPS as measured on an
// A100 (Section V preamble).
func npuModel() compute.Model {
	m := compute.A100()
	return m
}

// System is a named machine configuration from Table II.
type System struct {
	Name string
	Top  *topology.Topology
}

// mustTopo builds a topology from block kinds, sizes and bandwidths.
func mustTopo(kinds []topology.DimModel, sizes []int, gbps []float64) *topology.Topology {
	if len(kinds) != len(sizes) || len(sizes) != len(gbps) {
		panic("experiments: mismatched topology spec")
	}
	dims := make([]topology.Dim, len(kinds))
	for i := range kinds {
		dims[i] = topology.Dim{
			Kind:      kinds[i],
			Size:      sizes[i],
			Bandwidth: units.GBps(gbps[i]),
			Latency:   hopLatency,
		}
	}
	return topology.MustNew(dims...)
}

// TableII returns the six 512-NPU systems of Table II.
//
//	W-1D-350 / W-1D-500 / W-1D-600: Switch(512) wafers
//	W-2D-500:                       Switch(32)_Switch(16) at 250+250
//	Conv-3D:                        Ring(16)_FC(8)_Switch(4) at 200/100/50
//	Conv-4D:                        Ring(2)_FC(8)_Ring(8)_Switch(4) at 250/200/100/50
func TableII() []System {
	sw := topology.Switch
	r := topology.Ring
	fc := topology.FullyConnected
	return []System{
		{Name: "W-1D-350", Top: mustTopo([]topology.DimModel{sw}, []int{512}, []float64{350})},
		{Name: "W-1D-500", Top: mustTopo([]topology.DimModel{sw}, []int{512}, []float64{500})},
		{Name: "W-1D-600", Top: mustTopo([]topology.DimModel{sw}, []int{512}, []float64{600})},
		{Name: "W-2D-500", Top: mustTopo([]topology.DimModel{sw, sw}, []int{32, 16}, []float64{250, 250})},
		{Name: "Conv-3D", Top: mustTopo([]topology.DimModel{r, fc, sw}, []int{16, 8, 4}, []float64{200, 100, 50})},
		{Name: "Conv-4D", Top: mustTopo([]topology.DimModel{r, fc, r, sw}, []int{2, 8, 8, 4}, []float64{250, 200, 100, 50})},
	}
}

// scalingBase returns the Fig. 9(b)/Table IV baseline: the Conv-4D shape
// with its Dim 1 (on-chip) bandwidth raised to 1000 GB/s to model a
// wafer-class first dimension (Section V-A-2).
func scalingBase(dim1, dim4 int) *topology.Topology {
	return mustTopo(
		[]topology.DimModel{topology.Ring, topology.FullyConnected, topology.Ring, topology.Switch},
		[]int{dim1, 8, 8, dim4},
		[]float64{1000, 200, 100, 50},
	)
}

// ScalingSystems returns the seven systems of Table IV / Fig. 9(b):
// the 512-NPU base, conventional scale-out (growing the NIC dimension),
// and wafer scale-up (growing the on-chip dimension).
func ScalingSystems() []System {
	return []System{
		{Name: "Base-512", Top: scalingBase(2, 4)},
		{Name: "Conv-1024", Top: scalingBase(2, 8)},
		{Name: "Conv-2048", Top: scalingBase(2, 16)},
		{Name: "Conv-4096", Top: scalingBase(2, 32)},
		{Name: "W-1024", Top: scalingBase(4, 4)},
		{Name: "W-2048", Top: scalingBase(8, 4)},
		{Name: "W-4096", Top: scalingBase(16, 4)},
	}
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
