package sched

import (
	"wasched/internal/des"
	"wasched/internal/restrack"
)

// newSession returns the session of p, nil when p has no reservation
// model (a policy defined outside this package).
func newSession(p Policy) *session {
	m, ok := modelOf(p)
	if !ok {
		return nil
	}
	//waschedlint:allow hotalloc a driver makes its session once, at its first round
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

// session carries a policy's reservation state across rounds: one base
// profile per model dimension, the running set's reservations, updated by
// start/finish deltas with the same clamped per-job values the
// from-scratch build books. BeginRound copies the bases into the working
// profiles and layers the per-round state on top through round.begin, the
// code NewRound runs too, so its Round decides as Policy.NewRound(in)
// would; the replay determinism tests (internal/schedcheck) hold the two
// to byte-identical schedules. Between rounds it keeps the last executed
// round's working profiles, plan included, for Carry and Quiet. The
// Driver is its one caller and guarantees what those leave to the caller.
type session struct {
	base   []restrack.Profile
	rnd    *round
	rounds int
	// carries is false for the tetris+ window ordering, which moves with
	// the running set. The adaptive overlay carries only while its split
	// and band hold (round.extend).
	carries bool
}

// BeginRound returns this round's reservation state, valid until the next
// BeginRound, Carry or Quiet.
func (s *session) BeginRound(in RoundInput) Round {
	s.tick(in.Now)
	for i := range s.base {
		s.rnd.work[i].CopyFrom(&s.base[i])
	}
	return s.rnd.begin(in)
}

// Carry returns the last executed round's Round, extended to in.Now, when
// its plan is the one BeginRound(in) and the engine would make for the
// jobs that round examined (round.extend; DESIGN.md, "Carried rounds").
// The caller guarantees the rest: BackfillMax is unlimited, and since
// that round nothing happened but its own starts and arrivals that sort
// after every job it examined. The caller then runs the engine on the
// Round over the jobs the window holds behind those.
func (s *session) Carry(in RoundInput) (Round, bool) {
	if !s.carries || !s.rnd.extend(in) {
		return nil, false
	}
	s.tick(in.Now)
	return s.rnd.handle(), true
}

// Quiet reports whether the round at in.Now would decide exactly as the
// last executed one did, and so start nothing (round.quiet; DESIGN.md,
// "Quiet rounds"). The caller asks only when nothing happened since that
// round, and skips the engine on true. A quiet adaptive round adopts R̃
// and R̃' at in.Now, so the last Round's Diagnostics read as a fresh
// round's.
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

// JobStarted records that j started at j.StartedAt (already set by the
// caller), reserving [StartedAt, StartedAt+Limit) in the base state.
//
//waschedlint:hotpath
func (s *session) JobStarted(j *Job) {
	end := j.StartedAt.Add(j.Limit)
	for i := range s.base {
		s.base[i].Add(j.StartedAt, end, s.rnd.m.dims[i].need(j))
	}
}

// JobFinished records that j left the running set at end, releasing the
// unused tail [end, StartedAt+Limit) of its reservations.
//
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

// JobUpdated records that running job j's rate estimate changed from
// oldRate to j.Rate at now, re-booking the clamped difference over
// [now, StartedAt+Limit).
//
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
