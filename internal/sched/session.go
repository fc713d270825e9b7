package sched

import (
	"wasched/internal/des"
	"wasched/internal/restrack"
)

// Session carries a policy's reservation state across scheduling rounds,
// updated by job start/finish deltas instead of rebuilt from the running
// set every round — the backfill hot path at trace scale. BeginRound
// snapshots the carried base profiles into reusable working trackers (one
// memmove each) and layers the per-round state (unavailable nodes, the
// measured-throughput guard, the adaptive split) on top, so the Round it
// returns decides identically to Policy.NewRound(in): the node profile
// arithmetic is exact (integer-valued floats), and the bandwidth deltas
// apply the same clamped per-job values the from-scratch build would, so
// any divergence is below the trackers' fit tolerance. The replay
// determinism test (internal/schedcheck) holds the two paths to
// byte-identical schedules over the whole differential corpus.
//
// Between rounds a session keeps the last executed round's working
// profiles, its plan included, so Carry can extend that plan instead of
// re-planning the queue when only the round's own starts and later
// arrivals separate it from the next.
//
// Sessions assume that a job's request fields (Nodes, Limit, BBBytes)
// stay fixed while it waits or runs, that every start is reported through
// JobStarted and every finish through JobFinished, and that a running
// job's changed rate estimate is reported through JobUpdated. Estimates
// of waiting jobs, and priorities, are read from the RoundInput each
// round. Trace replay and the live controller (internal/slurm) both
// schedule through a session; NewSession returns nil for policies
// without session support and callers fall back to RunRound.
type Session interface {
	// BeginRound returns this round's reservation state. The Round (and
	// any decisions referencing it) is valid until the next BeginRound,
	// Carry or Quiet.
	BeginRound(in RoundInput) Round
	// Carry returns the last executed round's Round, extended to in.Now,
	// when its plan is the one BeginRound(in) and the engine would make
	// for the jobs that round examined (DESIGN.md, "Carried rounds"). The
	// session checks what it can see: the policy does not reorder the
	// window (tetris+), in.Now is before every future start and horizon
	// entry of the plan, the guard booked nothing then and books nothing
	// at in.Now, and the unavailable nodes are the same. Under the
	// adaptive overlay, r* and r̄_zero recomputed at in.Now are the
	// round's, R̃' recomputed at in.Now keeps every AT value the round
	// tested on the same side of the limit, and no start booked into AT
	// what moves the plan of a job deferred before it. The caller
	// guarantees the rest: BackfillMax is unlimited, and since that round
	// nothing happened but its own start-now decisions, each reported
	// through JobStarted, and arrivals that sort after every job it
	// examined. The caller then runs the engine on the returned Round
	// over the jobs the window holds behind those. On false nothing
	// changed, and the caller calls BeginRound.
	Carry(in RoundInput) (Round, bool)
	// Quiet reports whether the round at in.Now would decide exactly as
	// the last executed round (BeginRound or Carry) did, and so start
	// nothing: in.Now is before that round's wake time, the unavailable
	// node count is the same, the measured throughput is bit-equal or
	// the guard booked nothing then and books nothing at in.Now, and, for
	// an adaptive policy, the target R̃' recomputed at in.Now keeps every
	// AT value that round tested on the same side of the limit. A quiet
	// adaptive round adopts R̃ and R̃' at in.Now, so the last Round's
	// Diagnostics read as a fresh round's. The caller asks only when no
	// job started, finished or arrived and no estimate or priority
	// changed since that round, and skips the backfill engine when the
	// answer is true. A quiet or carried round still counts on the clock
	// that trims the profiles.
	Quiet(in RoundInput) bool
	// JobStarted records that j started at j.StartedAt (already set by the
	// caller), reserving [StartedAt, StartedAt+Limit) in the base state.
	JobStarted(j *Job)
	// JobFinished records that j left the running set at end, releasing
	// the unused tail [end, StartedAt+Limit) of its reservations.
	JobFinished(j *Job, end des.Time)
	// JobUpdated records that running job j's rate estimate changed from
	// oldRate to j.Rate at now, re-booking the clamped difference over
	// [now, StartedAt+Limit).
	JobUpdated(j *Job, oldRate float64, now des.Time)
}

// NewSession returns an incremental Session for p, or nil when p has no
// reservation model (custom policies fall back to per-round NewRound).
func NewSession(p Policy) Session {
	m, ok := modelOf(p)
	if !ok {
		return nil
	}
	return &session{
		base:    make([]restrack.Profile, len(m.dims)),
		rnd:     emptyRound(m),
		carries: !m.reorders,
	}
}

// trimEvery bounds profile growth: every this many rounds the dead
// breakpoints before the current time are dropped, from the base and from
// the working profiles a carried round goes on extending. Trimming moves
// points without recomputing values, so it cannot perturb decisions.
const trimEvery = 64

// session carries one base profile per model dimension: the running set's
// reservations, updated by start/finish deltas with the same clamped
// per-job values the from-scratch build books. Everything that is a
// function of this round's input (unavailable nodes, the guard, the
// adaptive overlay) is recomputed onto the working copy by round.begin,
// the code NewRound runs too.
type session struct {
	base   []restrack.Profile
	rnd    *round
	rounds int
	// carries is false for the tetris+ window ordering, which moves with
	// the running set. The adaptive overlay carries only while its split
	// and band hold (round.extend).
	carries bool
}

//waschedlint:hotpath
func (s *session) BeginRound(in RoundInput) Round {
	s.tick(in.Now)
	for i := range s.base {
		s.rnd.work[i].CopyFrom(&s.base[i])
	}
	return s.rnd.begin(in)
}

//waschedlint:hotpath
func (s *session) Carry(in RoundInput) (Round, bool) {
	if !s.carries || !s.rnd.extend(in) {
		return nil, false
	}
	s.tick(in.Now)
	return s.rnd.handle(), true
}

//waschedlint:hotpath
func (s *session) Quiet(in RoundInput) bool {
	if !s.rnd.quiet(in) {
		return false
	}
	s.tick(in.Now)
	return true
}

// tick counts a round, executed, carried or quiet, and trims the profiles
// on every trimEvery-th, so skipping rounds leaves the trim boundaries
// where running every round puts them.
func (s *session) tick(now des.Time) {
	s.rounds++
	if s.rounds%trimEvery != 0 {
		return
	}
	for i := range s.base {
		s.base[i].TrimBefore(now)
		s.rnd.work[i].TrimBefore(now)
	}
}

//waschedlint:hotpath
func (s *session) JobStarted(j *Job) {
	end := j.StartedAt.Add(j.Limit)
	for i := range s.base {
		s.base[i].Add(j.StartedAt, end, s.rnd.m.dims[i].need(j))
	}
}

//waschedlint:hotpath
func (s *session) JobFinished(j *Job, end des.Time) {
	limEnd := j.StartedAt.Add(j.Limit)
	if end >= limEnd {
		return
	}
	for i := range s.base {
		s.base[i].Add(end, limEnd, -s.rnd.m.dims[i].need(j))
	}
}

//waschedlint:hotpath
func (s *session) JobUpdated(j *Job, oldRate float64, now des.Time) {
	limEnd := j.StartedAt.Add(j.Limit)
	if now >= limEnd {
		return
	}
	for i := range s.base {
		d := &s.rnd.m.dims[i]
		if d.kind != dimRate {
			continue
		}
		if delta := d.need(j) - clampRate(oldRate, d.limit); delta != 0 {
			s.base[i].Add(now, limEnd, delta)
		}
	}
}
