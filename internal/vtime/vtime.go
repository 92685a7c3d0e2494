// Package vtime provides the virtual-time base used throughout the
// PAS2P runtime. All simulated clocks are expressed as Time, an int64
// count of virtual nanoseconds since the start of a run, so that every
// arithmetic operation is exact and runs are bit-reproducible (we never
// compare or accumulate floating-point clocks).
package vtime

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is an instant in virtual time, in nanoseconds since run start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a sentinel instant later than any reachable clock value.
const Infinity Time = math.MaxInt64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts an instant to float64 seconds for reporting.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Seconds converts a span to float64 seconds for reporting.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// FromSeconds converts float64 seconds to a Duration, rounding to the
// nearest nanosecond. Negative and NaN inputs clamp to zero; +Inf and
// overflowing inputs clamp to the maximum representable span.
func FromSeconds(s float64) Duration {
	if s != s || s <= 0 { // NaN or non-positive
		return 0
	}
	ns := s * 1e9
	if ns >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	return Duration(math.Round(ns))
}

// AddWeighted returns acc + d·w, one term of Equation (1)'s sum
// PET = Σ ETᵢ·Wᵢ. It reports false, with no sum, when an operand is
// negative or the result overflows int64.
func AddWeighted(acc, d Duration, w int) (Duration, bool) {
	if acc < 0 || d < 0 || w < 0 {
		return 0, false
	}
	hi, lo := bits.Mul64(uint64(d), uint64(w))
	if hi != 0 || lo > uint64(math.MaxInt64-acc) {
		return 0, false
	}
	return acc + Duration(lo), true
}

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two instants.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// String formats an instant using the same unit auto-scaling as
// Duration.String.
func (t Time) String() string { return Duration(t).String() }

// String renders a span with an auto-scaled unit, e.g. "1.5ms".
func (d Duration) String() string {
	switch {
	case d == math.MinInt64:
		// -d is d again: render it through float64 instead.
		return fmt.Sprintf("%.6gs", float64(d)/float64(Second))
	case d < 0:
		return fmt.Sprintf("-%s", -d)
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(d)/float64(Second))
	}
}
