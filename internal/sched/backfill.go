package sched

import "wasched/internal/des"

// Unlimited directs the backfill engine to reserve resources for every
// delayed job, which is the paper's characterisation of the default Slurm
// configuration (BackfillMax = ∞).
const Unlimited = 0

// EASY is the BackfillMax value that makes the engine equivalent to EASY
// backfill: only the first delayed job receives a reservation.
const EASY = 1

// SlurmDefaultTestLimit mirrors Slurm's bf_max_job_test default: at most
// this many queued jobs are examined per round. Zero means no limit.
const SlurmDefaultTestLimit = 100

// Decision is the outcome of one scheduling round for one examined job.
type Decision struct {
	Job *Job
	// StartNow is true when the job can start immediately.
	StartNow bool
	// PlannedStart is the reservation time for delayed jobs that received
	// one (valid when Reserved is true).
	PlannedStart des.Time
	// Reserved is true when resources were reserved for a delayed job.
	Reserved bool
	// Skipped is true when the job was passed over without a reservation
	// (BackfillMax exhausted, or no feasible start exists).
	Skipped bool
}

// Options configure the backfill engine.
type Options struct {
	// BackfillMax bounds how many delayed jobs receive reservations per
	// round (paper Algorithm 1). Unlimited (0) reserves for all; EASY (1)
	// reserves only for the head of the queue.
	BackfillMax int
	// MaxJobTest bounds how many queued jobs are examined per round
	// (Slurm bf_max_job_test). Zero examines the whole queue.
	MaxJobTest int
}

// RunRound executes one round of the backfill algorithm (paper
// Algorithm 1) under the given policy. The waiting slice must already be
// in queue order (descending priority, then submit time, then ID);
// running jobs must carry StartedAt. The returned
// decisions list one entry per examined job, in queue order; callers start
// the StartNow jobs. The round state is returned alongside so callers can
// read per-round diagnostics (Diagnoser).
//
// The engine asks the policy for a fresh Round (reservation trackers
// initialised from the running set), then walks the queue: a job whose
// earliest start equals the current time starts now and its resources are
// reserved; otherwise the job receives a future reservation, until
// BackfillMax reservations have been made, after which jobs are skipped
// for this round.
func RunRound(p Policy, in RoundInput, opt Options) ([]Decision, Round) {
	var rn runner
	rt := p.NewRound(in)
	return rn.run(p, rt, in, opt), rt
}

// runner owns the backfill engine's per-round buffers (the decision list,
// the reordered-window copy) so a long replay reuses them instead of
// allocating every round. The zero value is ready. The returned decision
// slice is valid until the runner's next run.
type runner struct {
	decisions []Decision
	window    []*Job
}

// run is the engine loop of RunRound, but against a caller-supplied
// Round: the Driver builds it from carried state (session.BeginRound,
// session.Carry) rather than asking the policy for a fresh one.
//
//waschedlint:hotpath
func (rn *runner) run(p Policy, rt Round, in RoundInput, opt Options) []Decision {
	window := in.Waiting
	if opt.MaxJobTest > 0 && len(window) > opt.MaxJobTest {
		window = window[:opt.MaxJobTest]
	}
	// Packing policies (WindowOrderer) reorder the examined window; the
	// copy keeps the controller's queue order intact.
	if orderer := windowOrderer(p); orderer != nil {
		rn.window = append(rn.window[:0], window...)
		orderer.OrderWindow(in, rn.window)
		window = rn.window
	}
	decisions := rn.decisions[:0]
	backfillCount := 0
	for _, j := range window {
		d := Decision{Job: j}
		// Defensive validation: the controller rejects such jobs at
		// submission, but a zero-node or zero-length job reaching the
		// trackers would divide by zero in the adaptive split or panic in
		// the profile arithmetic. Hold it without burning a window's
		// backfill reservation.
		if j.Nodes < 1 || j.Limit <= 0 {
			d.Skipped = true
			decisions = append(decisions, d)
			continue
		}
		t, ok := rt.EarliestStart(j, in.Now)
		switch {
		case !ok:
			// No feasible start under the policy's limits (e.g. the job
			// demands more than the whole file system): hold the job
			// without burning a backfill reservation.
			d.Skipped = true
		case t == in.Now:
			d.StartNow = true
			rt.Reserve(j, in.Now)
		case opt.BackfillMax != Unlimited && backfillCount >= opt.BackfillMax:
			d.Skipped = true
		default:
			d.PlannedStart = t
			d.Reserved = true
			rt.Reserve(j, t)
			backfillCount++
		}
		decisions = append(decisions, d)
	}
	rn.decisions = decisions
	return decisions
}

// windowOrderer is the policy that orders p's window, nil when none
// does. The bb+ and tbf+ wrappers implement WindowOrderer only to pass
// their inner policy's order through, so they are unwrapped first, as
// modelOf does, and a wrapper around a policy that keeps queue order
// costs no window copy.
func windowOrderer(p Policy) WindowOrderer {
	for {
		switch w := p.(type) {
		case BBAwarePolicy:
			p = w.Inner
		case TBFAwarePolicy:
			p = w.Inner
		default:
			o, _ := p.(WindowOrderer)
			return o
		}
	}
}
