// Package compute models NPU execution time with the roofline model the
// paper's graph-based execution engine uses for compute nodes: an operator
// with F floating-point operations and B bytes of memory traffic runs in
//
//	time = max(F / PeakFLOPS, B / MemoryBandwidth)
//
// i.e. it is either compute-bound or memory-bandwidth-bound, whichever is
// slower. The paper's case studies assume 234 TFLOPS per NPU, measured on
// an A100 (Section V).
package compute

import (
	"fmt"

	"repro/internal/units"
)

// Model is a roofline NPU model.
type Model struct {
	// Peak is the NPU's peak compute throughput.
	Peak units.FLOPS
	// MemBandwidth is the local memory (HBM) bandwidth that bounds
	// memory-bound operators.
	MemBandwidth units.Bandwidth
	// Efficiency derates the peak throughput (0 < Efficiency <= 1);
	// zero means 1.0. Real training kernels rarely sustain peak FLOPS.
	Efficiency float64
}

// A100 returns the paper's reference NPU: 234 TFLOPS with 2039 GB/s HBM2e
// bandwidth (NVIDIA A100 80GB), at full efficiency.
func A100() Model {
	return Model{Peak: units.TFLOPS(234), MemBandwidth: units.GBps(2039)}
}

// Validate reports configuration errors.
func (m Model) Validate() error {
	if m.Peak <= 0 {
		return fmt.Errorf("compute: non-positive peak FLOPS %v", float64(m.Peak))
	}
	if m.MemBandwidth < 0 {
		return fmt.Errorf("compute: negative memory bandwidth")
	}
	if m.Efficiency < 0 || m.Efficiency > 1 {
		return fmt.Errorf("compute: efficiency %v outside (0,1]", m.Efficiency)
	}
	return nil
}

// effectivePeak returns the derated compute throughput.
func (m Model) effectivePeak() units.FLOPS {
	if m.Efficiency > 0 {
		return units.FLOPS(float64(m.Peak) * m.Efficiency)
	}
	return m.Peak
}

// OpTime returns the roofline execution time of an operator with the given
// floating-point operation count and memory traffic, saturating at
// units.MaxTime.
func (m Model) OpTime(flops float64, memBytes units.ByteSize) units.Time {
	ct := m.effectivePeak().ComputeTime(flops)
	var mt units.Time
	if m.MemBandwidth > 0 {
		mt = m.MemBandwidth.TransferTime(memBytes)
	}
	return max(ct, mt)
}
