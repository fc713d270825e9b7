package restrack

import (
	"math"

	"wasched/internal/des"
)

// Release removes a previous reservation of n nodes over [lo, hi).
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

// UsedAt returns the reserved rate at time t.
func (bt *BandwidthTracker) UsedAt(t des.Time) float64 {
	return bt.profile.ValueAt(t)
}
