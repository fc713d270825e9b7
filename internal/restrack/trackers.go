package restrack

import (
	"fmt"
	"math"

	"wasched/internal/des"
)

// NodeTracker tracks node reservations against a fixed node count. It is
// the "NT" tracker of paper Algorithms 2–4.
type NodeTracker struct {
	total   int
	profile *Profile
}

// NewNodeTracker returns a tracker for a cluster with total nodes.
func NewNodeTracker(total int) *NodeTracker {
	if total <= 0 {
		panic(fmt.Sprintf("restrack: node count must be positive, got %d", total))
	}
	return &NodeTracker{total: total, profile: NewProfile()}
}

// Total returns the cluster node count.
func (nt *NodeTracker) Total() int { return nt.total }

// Reserve commits n nodes over [lo, hi). It does not enforce the capacity
// limit: running jobs must always be representable even if estimates placed
// the system temporarily over limit.
func (nt *NodeTracker) Reserve(lo, hi des.Time, n int) {
	nt.profile.Add(lo, hi, float64(n))
}

// Release removes a previous reservation of n nodes over [lo, hi). It is
// used when a job finishes earlier than its reserved time limit.
func (nt *NodeTracker) Release(lo, hi des.Time, n int) {
	nt.profile.Add(lo, hi, -float64(n))
}

// UsedAt returns the number of nodes reserved at time t. The profile value
// can drift a hair off an integer (and transiently below zero after a
// Release that splits breakpoints), so it is rounded to the nearest integer
// rather than truncated: int(v+0.5) would turn -0.4 into 0 but -0.6 into 0
// as well on some inputs yet -1.4 into 0 instead of -1, mis-rounding every
// negative value.
func (nt *NodeTracker) UsedAt(t des.Time) int {
	return int(math.Round(nt.profile.ValueAt(t)))
}

// EarliestFit returns the earliest time >= from at which n nodes are free
// for the whole duration dur.
func (nt *NodeTracker) EarliestFit(from des.Time, dur des.Duration, n int) (des.Time, bool) {
	return nt.profile.EarliestFit(from, dur, float64(n), float64(nt.total))
}

// Profile exposes the underlying profile for diagnostics and trace export.
func (nt *NodeTracker) Profile() *Profile { return nt.profile }

// BandwidthTracker tracks reservations of a bandwidth-type resource (bytes
// per second) against a configurable limit. It implements the "LT" tracker
// of Algorithm 2 and, with a different limit, the "AT" tracker of
// Algorithm 5.
type BandwidthTracker struct {
	limit   float64
	profile *Profile
}

// NewBandwidthTracker returns a tracker with the given capacity limit in
// bytes per second. The limit may be zero (AT with a zero adjusted target
// is legitimate); it must not be negative.
func NewBandwidthTracker(limit float64) *BandwidthTracker {
	if limit < 0 {
		panic(fmt.Sprintf("restrack: bandwidth limit must be non-negative, got %g", limit))
	}
	return &BandwidthTracker{limit: limit, profile: NewProfile()}
}

// Limit returns the tracker's capacity in bytes per second.
func (bt *BandwidthTracker) Limit() float64 { return bt.limit }

// Reserve commits rate bytes/s over [lo, hi). Like the node tracker it does
// not enforce the limit: Algorithm 2 reserves the *measured* current
// throughput even when it exceeds the configured limit.
func (bt *BandwidthTracker) Reserve(lo, hi des.Time, rate float64) {
	if rate < 0 {
		panic(fmt.Sprintf("restrack: negative bandwidth reservation %g", rate))
	}
	bt.profile.Add(lo, hi, rate)
}

// UsedAt returns the reserved rate at time t.
func (bt *BandwidthTracker) UsedAt(t des.Time) float64 {
	return bt.profile.ValueAt(t)
}

// EarliestFit returns the earliest time >= from at which rate bytes/s fit
// under the limit for the whole duration dur.
func (bt *BandwidthTracker) EarliestFit(from des.Time, dur des.Duration, rate float64) (des.Time, bool) {
	return bt.profile.EarliestFit(from, dur, rate, bt.limit)
}

// Profile exposes the underlying profile for diagnostics and trace export.
func (bt *BandwidthTracker) Profile() *Profile { return bt.profile }
