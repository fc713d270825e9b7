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
// Sessions assume what trace replay guarantees: a job's request fields and
// estimates (Nodes, Limit, Rate, EstRuntime, Priority) stay fixed while it
// waits or runs, every start is reported through JobStarted and every
// finish through JobFinished. The live controller refreshes estimates
// before each round, so it keeps calling Policy.NewRound; NewSession
// returns nil for policies without session support and callers fall back.
type Session interface {
	// BeginRound returns this round's reservation state. The Round (and
	// any decisions referencing it) is valid until the next BeginRound.
	BeginRound(in RoundInput) Round
	// Quiet reports whether the round at in.Now would decide exactly as
	// the last BeginRound's did, and so start nothing. The caller asks
	// only when no job started, finished or arrived since that round, and
	// skips BeginRound and the backfill engine when the answer is true. A
	// quiet round still counts on the clock that trims the base profiles.
	Quiet(in RoundInput) bool
	// JobStarted records that j started at j.StartedAt (already set by the
	// caller), reserving [StartedAt, StartedAt+Limit) in the base state.
	JobStarted(j *Job)
	// JobFinished records that j left the running set at end, releasing
	// the unused tail [end, StartedAt+Limit) of its reservations.
	JobFinished(j *Job, end des.Time)
}

// NewSession returns an incremental Session for p, or nil when p has no
// reservation model (custom policies fall back to per-round NewRound).
func NewSession(p Policy) Session {
	m, ok := modelOf(p)
	if !ok {
		return nil
	}
	return &session{base: make([]restrack.Profile, len(m.dims)), rnd: emptyRound(m)}
}

// trimEvery bounds base-profile growth: every this many rounds the dead
// breakpoints before the current time are dropped. Trimming moves points
// without recomputing values, so it cannot perturb decisions.
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
func (s *session) Quiet(in RoundInput) bool {
	if !s.rnd.quiet(in) {
		return false
	}
	s.tick(in.Now)
	return true
}

// tick counts a round, executed or quiet, and trims the base profiles on
// every trimEvery-th, so skipping rounds leaves the trim boundaries where
// running every round puts them.
func (s *session) tick(now des.Time) {
	s.rounds++
	if s.rounds%trimEvery != 0 {
		return
	}
	for i := range s.base {
		s.base[i].TrimBefore(now)
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
