package model

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is an instant on the simulated timeline, in ticks.
//
// The library uses an integer time base throughout: the event queue, the
// fixed-point schedulability analyses, and the release rules of every
// protocol operate on exact integer arithmetic, so there are no
// floating-point ordering hazards anywhere in the scheduling logic.
type Time int64

// Duration is a span of simulated time, in ticks. Periods, execution times,
// response-time bounds, and deadlines are all Durations.
type Duration int64

// Infinite is the sentinel for an unbounded duration, e.g. a response-time
// bound that a schedulability analysis failed to establish. It is the
// maximum int64 so that any comparison "bound <= deadline" naturally fails.
const Infinite Duration = math.MaxInt64

// TimeInfinity is the sentinel for "never" on the timeline.
const TimeInfinity Time = math.MaxInt64

// IsInfinite reports whether d is the Infinite sentinel.
func (d Duration) IsInfinite() bool { return d == Infinite }

// String renders the duration; Infinite prints as "inf".
func (d Duration) String() string {
	if d.IsInfinite() {
		return "inf"
	}
	return fmt.Sprintf("%d", int64(d))
}

// String renders the instant; TimeInfinity prints as "inf".
func (t Time) String() string {
	if t == TimeInfinity {
		return "inf"
	}
	return fmt.Sprintf("%d", int64(t))
}

// Add returns t shifted by d, saturating at TimeInfinity.
func (t Time) Add(d Duration) Time {
	if t == TimeInfinity || d.IsInfinite() {
		return TimeInfinity
	}
	s := int64(t) + int64(d)
	if s < int64(t) { // overflow
		return TimeInfinity
	}
	return Time(s)
}

// Sub returns the duration from u to t (t - u).
func (t Time) Sub(u Time) Duration {
	if t == TimeInfinity {
		return Infinite
	}
	return Duration(int64(t) - int64(u))
}

// AddSat returns d + e with saturation at Infinite.
func (d Duration) AddSat(e Duration) Duration {
	if d.IsInfinite() || e.IsInfinite() {
		return Infinite
	}
	s := int64(d) + int64(e)
	if s < int64(d) {
		return Infinite
	}
	return Duration(s)
}

// MulSat returns d * k with saturation at Infinite. d and k must be
// non-negative. The overflow test reads the high word of the 128-bit
// product instead of dividing.
func (d Duration) MulSat(k int64) Duration {
	if d.IsInfinite() {
		return Infinite
	}
	hi, lo := bits.Mul64(uint64(d), uint64(k))
	if hi != 0 || lo > math.MaxInt64 {
		return Infinite
	}
	return Duration(lo)
}

// CeilDiv returns ceil(d / e) for positive e (0 for d <= 0). It is the
// workhorse of the busy-period analyses, which repeatedly evaluate
// ceil(t/p)·e terms. The 1 + (d−1)/e form cannot overflow; (d+e−1)/e
// would wrap negative once d > MaxInt64−e+1.
func CeilDiv(d, e Duration) int64 {
	if e <= 0 {
		panic("model: CeilDiv divisor must be positive")
	}
	if d <= 0 {
		return 0
	}
	return 1 + (int64(d)-1)/int64(e)
}

// MaxDuration returns the larger of a and b.
func MaxDuration(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
