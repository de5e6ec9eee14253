// Package units defines the physical quantities used throughout the
// simulator: simulated time, data sizes, bandwidths, and compute rates.
//
// Simulated time is an integer count of picoseconds so that event ordering
// is exact and reproducible; one simulated second is 1e12 ticks, which
// leaves ample headroom in an int64 for multi-hour simulations. Durations
// converted from rates saturate at MaxTime (about 106 days) rather than
// wrap.
package units

import (
	"fmt"
	"math"
)

// Time is a simulated time or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond

	// MaxTime is the largest representable instant. The event engine
	// reports an event due at or past it as an overflow error.
	MaxTime Time = math.MaxInt64
)

// fromPicos rounds a non-negative picosecond count to the nearest Time,
// halves away from zero, saturating at MaxTime (NaN included) instead of
// overflowing the conversion. Below 2^63 the truncation and the fraction
// are exact, so it equals Time(math.Round(ps)) bit for bit at under half
// math.Round's inlining cost, which keeps Bandwidth.TransferTime, on the
// network's per-phase path, inlinable.
func fromPicos(ps float64) Time {
	if !(ps < float64(MaxTime)) {
		return MaxTime
	}
	t := Time(ps)
	if ps-float64(t) >= 0.5 {
		t++
	}
	return t
}

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns t expressed in nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time with an auto-selected unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t < Nanosecond && t > -Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second && t > -Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts a duration in seconds to simulated Time,
// rounding to the nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMicros converts a duration in microseconds to simulated Time.
func FromMicros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// FromNanos converts a duration in nanoseconds to simulated Time.
func FromNanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// ByteSize is a data size in bytes.
type ByteSize int64

// Common sizes.
const (
	Byte ByteSize = 1
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
	GiB           = 1024 * MiB

	KB = 1000 * Byte
	MB = 1000 * KB
	GB = 1000 * MB
)

// Bytes returns the size as a float64 byte count.
func (b ByteSize) Bytes() float64 { return float64(b) }

// MiBs returns the size expressed in binary megabytes.
func (b ByteSize) MiBs() float64 { return float64(b) / float64(MiB) }

// String renders the size with an auto-selected binary unit.
func (b ByteSize) String() string {
	switch {
	case b == 0:
		return "0B"
	case b < KiB && b > -KiB:
		return fmt.Sprintf("%dB", int64(b))
	case b < MiB && b > -MiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	case b < GiB && b > -GiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	}
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// GBps constructs a Bandwidth from a rate in gigabytes (1e9) per second,
// the unit used throughout the paper's tables.
func GBps(g float64) Bandwidth { return Bandwidth(g * 1e9) }

// GBpsValue returns the bandwidth expressed in GB/s.
func (bw Bandwidth) GBpsValue() float64 { return float64(bw) / 1e9 }

// String renders the bandwidth in GB/s.
func (bw Bandwidth) String() string { return fmt.Sprintf("%.1fGB/s", bw.GBpsValue()) }

// TransferTime returns the serialization time of size bytes at this
// bandwidth. A non-positive bandwidth yields zero time so that unused
// fabrics can be configured as "infinitely fast"; a time past MaxTime
// saturates there.
func (bw Bandwidth) TransferTime(size ByteSize) Time {
	if bw <= 0 || size <= 0 {
		return 0
	}
	return fromPicos(float64(size) / float64(bw) * float64(Second))
}

// FLOPS is a compute rate in floating-point operations per second.
type FLOPS float64

// TFLOPS constructs a FLOPS value from teraflops, the paper's unit
// (e.g. the A100's 234 TFLOPS in Section V).
func TFLOPS(t float64) FLOPS { return FLOPS(t * 1e12) }

// ComputeTime returns the time to execute ops floating-point operations
// at this rate. A non-positive rate yields zero time; a time past MaxTime
// saturates there.
func (f FLOPS) ComputeTime(ops float64) Time {
	if f <= 0 || ops <= 0 {
		return 0
	}
	return fromPicos(ops / float64(f) * float64(Second))
}
