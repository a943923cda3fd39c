// Package vclock provides the virtual-time primitives used throughout the
// simulator. Simulated MPI processes each maintain their own virtual clock;
// the engine orders events by virtual timestamps with a deterministic
// tie-breaking key so that simulations are exactly repeatable.
package vclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulated application's life. A simulation that restarts after an
// abort resumes from the previously persisted exit time, so Time is
// continuous across failure/restart cycles.
//
// The zero Time is the epoch (application start).
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Never is the sentinel for "no scheduled time" (e.g. a process whose time
// of failure is unset fails never). The paper initialises time-of-failure to
// 0 meaning "fail never"; we use an explicit sentinel so that a legitimate
// failure at virtual time 0 remains expressible.
const Never Time = math.MaxInt64

// Room returns the virtual time a run starting at start may plan to
// spend: half of what is left of the clock's range. The other half is
// headroom for what such a plan does not model, such as communication,
// checkpoint I/O, waiting, and the detection timeout a failure adds.
func Room(start Time) Duration { return Never.Sub(max(start, 0)) / 2 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromSeconds converts floating-point seconds into a virtual duration,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Duration { return Duration(math.Round(s * float64(Second))) }

// TimeFromSeconds converts floating-point seconds since the epoch into a
// virtual time, rounding to the nearest nanosecond.
func TimeFromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// StepsToReach returns the smallest k >= 1 for which t advanced by k equal
// steps of d is at or past target: the number of Elapse(d) calls, starting
// at clock t, up to and including the first after which the clock has
// reached target. A clock already at or past target takes one step, and
// math.MaxInt means no step ever gets there (d <= 0 with t before target)
// or the count does not fit an int. It is one ceiling division, done
// unsigned because target may be Never.
func StepsToReach(t Time, d Duration, target Time) int {
	if t >= target {
		return 1
	}
	if d <= 0 {
		return math.MaxInt
	}
	gap := uint64(target) - uint64(t) // target > t, so the true difference, in (0, 2^64)
	if k := (gap-1)/uint64(d) + 1; k < math.MaxInt {
		return int(k)
	}
	return math.MaxInt
}

// String renders the time as seconds with microsecond precision, e.g.
// "5248.000107s", or "never" for the Never sentinel.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// String renders the duration as seconds with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
