package sched

import "wasched/internal/des"

// PlanPolicy is the plan-based burst-buffer co-scheduling policy after
// Kopanski/Rzadca ("Plan-based Job Scheduling for Supercomputers with
// Shared Burst Buffers"): every backfill pass builds a greedy future plan
// that co-reserves compute nodes AND shared burst-buffer capacity, so a
// job whose BB demand does not fit now receives a future reservation
// instead of a doomed start-now decision. The simulated-annealing search
// of the original is replaced by the greedy first-fit plan the backfill
// engine already implements — the paper's own baseline variant — which
// keeps the policy compatible with the incremental Session path.
//
// The BB profile models reservations over [start, start+Limit) only; the
// post-completion drain holds capacity a little longer, and the executor's
// admission check (internal/slurm, internal/schedcheck replay) covers that
// window by deferring starts that do not fit the live occupancy.
type PlanPolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
	// BBCapacity is the shared burst-buffer pool size in bytes. Jobs
	// demanding more than this can never run and are reported infeasible.
	BBCapacity float64
	// ThroughputLimit optionally co-reserves PFS bandwidth exactly as
	// IOAwarePolicy does; zero plans nodes + burst buffer only.
	ThroughputLimit float64
	// Horizon bounds the lookahead window: jobs whose planned start would
	// fall after Now+Horizon are skipped this round instead of reserved.
	// Zero means unbounded (plan the whole queue).
	Horizon des.Duration
}

// Name implements Policy.
func (p PlanPolicy) Name() string { return "plan" }

// NewRound implements Policy: nodes, burst-buffer bytes and, with a
// ThroughputLimit, bandwidth, all seeded with the running set.
func (p PlanPolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }

// BBAwarePolicy is the opt-in burst-buffer hook for the built-in
// policies: it appends a shared-BB dimension to the inner policy's
// reservation model, so the inner policy's backfill reservations (nodes,
// bandwidth, adaptive target, Tetris ordering via its inner) additionally
// respect BB capacity. Unlike PlanPolicy it has no lookahead horizon of
// its own — the inner policy's semantics are preserved, only constrained.
type BBAwarePolicy struct {
	// Inner is the wrapped policy; it must be one of this package's
	// policies (NewRound and newSession panic otherwise).
	Inner Policy
	// Capacity is the shared burst-buffer pool size in bytes.
	Capacity float64
}

// Name implements Policy.
func (p BBAwarePolicy) Name() string { return "bb+" + p.Inner.Name() }

// NewRound implements Policy: the inner policy's model plus a BB
// dimension.
func (p BBAwarePolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }

// OrderWindow implements WindowOrderer by delegating to the inner policy
// when it is one (e.g. Tetris); otherwise the window order is untouched.
func (p BBAwarePolicy) OrderWindow(in RoundInput, window []*Job) {
	if o, ok := p.Inner.(WindowOrderer); ok {
		o.OrderWindow(in, window)
	}
}
