package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		secs float64
	}{
		{0, 0},
		{Second, 1},
		{Millisecond, 1e-3},
		{Microsecond, 1e-6},
		{Nanosecond, 1e-9},
		{Picosecond, 1e-12},
		{3 * Second / 2, 1.5},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); math.Abs(got-c.secs) > 1e-15 {
			t.Errorf("Time(%d).Seconds() = %v, want %v", c.in, got, c.secs)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms int16) bool {
		s := float64(ms) / 1000.0
		return FromSeconds(s) == Time(ms)*Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromMicros(t *testing.T) {
	if got := FromMicros(2.5); got != 2500*Nanosecond {
		t.Errorf("FromMicros(2.5) = %v, want 2500ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2 * KiB, "2.00KiB"},
		{3 * MiB, "3.00MiB"},
		{5 * GiB, "5.00GiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBandwidthTransferTime(t *testing.T) {
	// 1 GB at 1 GB/s should take exactly one simulated second.
	bw := GBps(1)
	if got := bw.TransferTime(GB); got != Second {
		t.Errorf("1GB @ 1GB/s = %v, want 1s", got)
	}
	// 64 MB at 150 GB/s (the paper's NVLink validation setting).
	got := GBps(150).TransferTime(64 * MB)
	want := FromSeconds(64e6 / 150e9)
	if got != want {
		t.Errorf("64MB @ 150GB/s = %v, want %v", got, want)
	}
}

func TestBandwidthZeroAndNegative(t *testing.T) {
	if GBps(0).TransferTime(GB) != 0 {
		t.Error("zero bandwidth should produce zero transfer time")
	}
	if GBps(-5).TransferTime(GB) != 0 {
		t.Error("negative bandwidth should produce zero transfer time")
	}
	if GBps(10).TransferTime(0) != 0 {
		t.Error("zero size should produce zero transfer time")
	}
	if GBps(10).TransferTime(-1) != 0 {
		t.Error("negative size should produce zero transfer time")
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := ByteSize(a), ByteSize(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		bw := GBps(100)
		return bw.TransferTime(lo) <= bw.TransferTime(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFLOPSComputeTime(t *testing.T) {
	// 234e12 flops at 234 TFLOPS is one second.
	f := TFLOPS(234)
	if got := f.ComputeTime(234e12); got != Second {
		t.Errorf("234Tflop @ 234TFLOPS = %v, want 1s", got)
	}
	if f.ComputeTime(0) != 0 {
		t.Error("zero work should take zero time")
	}
	if FLOPS(0).ComputeTime(1e12) != 0 {
		t.Error("zero rate should take zero time")
	}
}

// Durations past the int64 picosecond range saturate at MaxTime instead
// of converting to a wrapped or negative value.
func TestDurationsSaturate(t *testing.T) {
	f := TFLOPS(234)
	for _, ops := range []float64{3e21, 1e24, math.Inf(1), math.NaN()} {
		if got := f.ComputeTime(ops); got != MaxTime {
			t.Errorf("ComputeTime(%g) = %d, want MaxTime", ops, got)
		}
	}
	if got := Bandwidth(1e-3).TransferTime(GiB); got != MaxTime {
		t.Errorf("1 GiB at 1e-3 B/s = %d, want MaxTime", got)
	}
	if got := f.ComputeTime(1e21); got <= 0 || got == MaxTime {
		t.Errorf("ComputeTime(1e21) = %d, want an in-range positive time", got)
	}
}

// fromPicos rounds exactly like math.Round on every non-negative value in
// range: integers, halves, the largest double below one half, and random
// doubles across the exponent range.
func TestFromPicosMatchesMathRound(t *testing.T) {
	check := func(x float64) bool {
		x = math.Abs(x)
		if !(x < float64(MaxTime)) {
			return fromPicos(x) == MaxTime
		}
		return fromPicos(x) == Time(math.Round(x))
	}
	for _, x := range []float64{0, 0.5, 1, 1.5, 2.5, 0.49999999999999994, 1 << 52, 1<<52 + 1, 1<<53 - 1, 1 << 62, math.Nextafter(float64(MaxTime), 0)} {
		if !check(x) {
			t.Errorf("fromPicos(%v) = %d, want %d", x, fromPicos(x), Time(math.Round(x)))
		}
	}
	scaled := func(m float64, e uint8) bool { return check(math.Ldexp(m, int(e%70)-4)) }
	if err := quick.Check(scaled, &quick.Config{MaxCount: 100000}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthString(t *testing.T) {
	if got := GBps(450).String(); got != "450.0GB/s" {
		t.Errorf("String() = %q", got)
	}
}
