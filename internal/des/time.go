// Package des provides a deterministic discrete-event simulation kernel.
//
// All components of the scheduling system (the cluster, the parallel file
// system model, the monitoring samplers and the scheduler itself) run on a
// single des.Engine so that every experiment is exactly reproducible: the
// only sources of nondeterminism are explicitly seeded RNG streams.
package des

import "fmt"

// Time is a simulation timestamp measured in integer microseconds since the
// start of the simulation. Integer time makes event ordering exact and keeps
// runs bit-for-bit reproducible across platforms.
type Time int64

// Duration is a span of simulation time in integer microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// MaxTime is the largest representable simulation time. It is used as the
// horizon for "never" and for open-ended reservations.
const MaxTime Time = 1<<63 - 1

// Add returns the time d after t, saturating at MaxTime on overflow.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if d > 0 && s < t {
		return MaxTime
	}
	return s
}

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// TimeFromSeconds converts floating-point seconds to a Time.
func TimeFromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string {
	if t == MaxTime {
		return "t=inf"
	}
	return fmt.Sprintf("t=%.6fs", t.Seconds())
}

// String formats the duration as seconds with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }
