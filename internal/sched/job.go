// Package sched implements multi-resource backfill scheduling: the Slurm
// backfill algorithm (paper Algorithm 1) as a policy-parameterised engine,
// with policies for node-only scheduling (default Slurm), I/O-aware
// scheduling (paper Algorithms 2–4) and workload-adaptive scheduling with
// the two-group approximation (paper Algorithms 5–7, Equations 1–5), plus
// the rival plan-based burst-buffer, token-bucket and TETRIS policies.
//
// Every built-in policy maps to one reservation model: an ordered list of
// resource dimensions (nodes, R_limit bandwidth, burst-buffer bytes), a
// plan horizon, the measured-throughput guard and, for the adaptive
// policy, the R̃ / two-group / AT overlay. Wrappers compose models: bb+
// appends a BB dimension, tetris+ and tbf+ pass theirs through. One round
// type finds a job's earliest start over all dimensions (Algorithm 4), and
// one private session carries the model's profiles across rounds.
//
// Driver is the one scheduling driver: it owns the waiting queue, the
// session and the choice between a quiet, a carried and a full round,
// and both callers, the trace replayer (internal/schedcheck) and the
// controller (internal/slurm), schedule only through it. RunRound is the
// from-scratch round the driver falls back to for a policy defined
// outside this package, and that its checks and the tests compare with.
//
// The package is pure scheduling logic: it never touches the simulator or
// the analytics service. The callers report the events between rounds,
// assemble each round's input (the running set and the measured
// throughput) and apply the decisions.
package sched

import "wasched/internal/des"

// Job is the scheduler's view of one job. The controller fills the
// identity and request fields at submission and refreshes the estimate
// fields from the analytics service before every scheduling round.
type Job struct {
	// ID is the unique job identifier.
	ID string
	// Fingerprint identifies the job's class for estimation purposes.
	Fingerprint string
	// Nodes is the requested node count n_j.
	Nodes int
	// Limit is the user-requested runtime limit L_j; reservations are
	// held for this long regardless of estimates.
	Limit des.Duration
	// Submit is the submission time s_j (queue-order tiebreak).
	Submit des.Time
	// Priority orders the queue (higher first); equal priorities fall
	// back to FIFO by Submit, then ID.
	Priority int64

	// StartedAt is the start time b_j; meaningful for running jobs only.
	StartedAt des.Time

	// Rate is the estimated average Lustre throughput r_j in bytes/s.
	// Zero for jobs with no estimate (the paper's "untrained" case).
	Rate float64
	// EstRuntime is the estimated runtime d_j. Zero means no estimate;
	// policies fall back to Limit.
	EstRuntime des.Duration

	// BBBytes is the job's burst-buffer reservation request in bytes
	// (Kopanski/Rzadca's shared burst-buffer model). Zero for jobs that
	// use no burst buffer; only BB-aware policies (PlanPolicy,
	// BBAwarePolicy) read it.
	BBBytes float64
}

// estRuntime returns d_j, falling back to the requested limit when the
// analytics has no estimate.
func (j *Job) estRuntime() des.Duration {
	if j.EstRuntime > 0 {
		return j.EstRuntime
	}
	return j.Limit
}

// remaining returns the estimated remaining runtime of a running job at
// time now: max(0, b_j + d_j − now).
func (j *Job) remaining(now des.Time) des.Duration {
	end := j.StartedAt.Add(j.estRuntime())
	if end <= now {
		return 0
	}
	return end.Sub(now)
}

// queueLess is the waiting queue's strict order (Algorithm 1 line 2):
// descending priority, then FIFO by submit time, then by ID for total
// determinism. a sorts before b.
func queueLess(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// queueCmp is queueLess as a three-way comparison, for the slices sorts.
func queueCmp(a, b *Job) int {
	switch {
	case queueLess(a, b):
		return -1
	case queueLess(b, a):
		return 1
	}
	return 0
}

// queueInsert inserts j into waiting, which is in queueLess order, and
// returns the grown slice, still in that order. queueLess is a total
// order, so a queue whose keys do not change while it waits, kept sorted
// by insertion, is exactly the slice a full sort would make every round.
func queueInsert(waiting []*Job, j *Job) []*Job {
	lo, hi := 0, len(waiting)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); queueLess(j, waiting[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	waiting = append(waiting, nil)
	copy(waiting[lo+1:], waiting[lo:])
	waiting[lo] = j
	return waiting
}

// RoundInput is everything a policy sees at the start of a scheduling
// round: the running set R, the waiting queue Q (already sorted), the
// current time, and the measured file-system throughput R_now.
type RoundInput struct {
	Now                des.Time
	Running            []*Job
	Waiting            []*Job
	MeasuredThroughput float64
}

// Round is one scheduling round's reservation state. EarliestStart and
// Reserve correspond to the EarliestStartTime and ReserveResources
// procedures of the paper's algorithms.
type Round interface {
	// EarliestStart returns the earliest time not earlier than tmin at
	// which all resources required by j are available for L_j. ok is
	// false when no such time exists under the policy's limits.
	EarliestStart(j *Job, tmin des.Time) (t des.Time, ok bool)
	// Reserve commits j's resources starting at t for L_j.
	Reserve(j *Job, t des.Time)
}

// Policy builds the reservation trackers for a scheduling round
// (InitializeReservationTracker in Algorithms 1, 2 and 5).
type Policy interface {
	NewRound(in RoundInput) Round
	// Name identifies the policy in traces and reports.
	Name() string
}

// Diagnoser is an optional Round interface exposing per-round internals
// (adaptive target, two-group threshold, ...) for traces and experiments.
type Diagnoser interface {
	Diagnostics() map[string]float64
}
