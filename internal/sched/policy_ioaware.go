package sched

import "wasched/internal/des"

// IOAwarePolicy implements the paper's I/O-aware scheduling (§VI,
// Algorithms 2–4): Lustre throughput becomes a reservable cluster-wide
// resource with a fixed limit. Job requirements come from estimates, and
// the measured current throughput backstops under-estimation.
type IOAwarePolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
	// ThroughputLimit is R_limit in bytes/s (20 or 15 GiB/s in the paper).
	ThroughputLimit float64
	// IgnoreMeasured disables the measured-throughput guard of Algorithm 2
	// lines 7-8 (ablation only; the paper's scheduler always applies it).
	IgnoreMeasured bool
}

// Name implements Policy.
func (p IOAwarePolicy) Name() string { return "io-aware" }

// MeasuredResidualHorizon is how long the measured-throughput guard holds a
// reservation for I/O that cannot be attributed to any running job (the
// running set is empty but the monitors still report traffic — external
// clients, lagging LDMS samples of jobs that just finished, ...). Residual
// traffic has no job end time to bound it, so the guard books it for one
// default scheduling round: long enough that admission this round accounts
// for it, short enough that a stale monitoring sample cannot idle the file
// system for long. Re-measured every round, the reservation slides forward
// while the residual persists and vanishes one horizon after it stops.
const MeasuredResidualHorizon = 30 * des.Second

// NewRound implements Policy (Algorithm 2).
func (p IOAwarePolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }
