package compute

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestA100Reference(t *testing.T) {
	m := A100()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 234e12 flops with negligible memory traffic: exactly one second.
	if got := m.OpTime(234e12, 0); got != units.Second {
		t.Errorf("OpTime = %v, want 1s", got)
	}
	if got := m.OpTime(1e30, 0); got != units.MaxTime {
		t.Errorf("op past the end of time = %d, want units.MaxTime", got)
	}
}

func TestMemoryBoundOp(t *testing.T) {
	m := Model{Peak: units.TFLOPS(100), MemBandwidth: units.GBps(1000)}
	// 1 GB of traffic with tiny compute: bounded by 1 ms of memory time.
	got := m.OpTime(1e6, units.GB)
	if got != units.Millisecond {
		t.Errorf("OpTime = %v, want 1ms (memory bound)", got)
	}
}

func TestEfficiencyDerating(t *testing.T) {
	full := Model{Peak: units.TFLOPS(100)}
	half := Model{Peak: units.TFLOPS(100), Efficiency: 0.5}
	if got, want := half.OpTime(1e14, 0), 2*full.OpTime(1e14, 0); got != want {
		t.Errorf("50%% efficiency OpTime = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{Peak: 0},
		{Peak: units.TFLOPS(1), MemBandwidth: -1},
		{Peak: units.TFLOPS(1), Efficiency: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestOpTimeMonotonicInWork(t *testing.T) {
	m := A100()
	f := func(a, b uint32) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.OpTime(lo, 0) <= m.OpTime(hi, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRooflineTakesMax(t *testing.T) {
	m := Model{Peak: units.TFLOPS(100), MemBandwidth: units.GBps(1000)}
	// At the ridge point both roofs agree; runtime equals either.
	flops := 1e11                // 1 ms of compute
	bytes := units.ByteSize(1e9) // 1 ms of memory
	if got := m.OpTime(flops, bytes); got != units.Millisecond {
		t.Errorf("ridge op = %v, want 1ms", got)
	}
}
