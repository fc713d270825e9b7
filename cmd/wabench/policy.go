package main

import (
	"time"

	"wasched/internal/des"
	"wasched/internal/sched"
)

// policyStats is what the timing wrapper records: wall time spent inside
// the policy and how often the backfill engine called it.
type policyStats struct {
	wall      time.Duration
	newRounds int
	earliest  int // EarliestStart probes
	reserves  int // Reserve placements
}

func (s *policyStats) addTo(o *outcome) {
	o.spans["sched.policy"] = s.wall
	o.counters["sched.new_rounds"] = float64(s.newRounds)
	o.counters["sched.earliest_start_calls"] = float64(s.earliest)
	o.counters["sched.reserve_calls"] = float64(s.reserves)
	o.counters["sched.placements_per_probe"] = ratio(float64(s.reserves), float64(s.earliest))
}

// wrapPolicy times every call into p. The wrapper implements
// sched.WindowOrderer only when p does, and its rounds implement
// sched.Diagnoser only when p's do, so the backfill engine and the
// controller take the same branches as without it.
func wrapPolicy(p sched.Policy, st *policyStats) sched.Policy {
	t := timedPolicy{inner: p, st: st}
	if o, ok := p.(sched.WindowOrderer); ok {
		return orderingPolicy{t, o}
	}
	return t
}

type timedPolicy struct {
	inner sched.Policy
	st    *policyStats
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) NewRound(in sched.RoundInput) sched.Round {
	start := time.Now()
	r := p.inner.NewRound(in)
	p.st.wall += time.Since(start)
	p.st.newRounds++
	t := timedRound{inner: r, st: p.st}
	if d, ok := r.(sched.Diagnoser); ok {
		return diagnosingRound{t, d}
	}
	return t
}

type orderingPolicy struct {
	timedPolicy
	orderer sched.WindowOrderer
}

func (p orderingPolicy) OrderWindow(in sched.RoundInput, window []*sched.Job) {
	start := time.Now()
	p.orderer.OrderWindow(in, window)
	p.st.wall += time.Since(start)
}

type timedRound struct {
	inner sched.Round
	st    *policyStats
}

func (r timedRound) EarliestStart(j *sched.Job, tmin des.Time) (des.Time, bool) {
	start := time.Now()
	t, ok := r.inner.EarliestStart(j, tmin)
	r.st.wall += time.Since(start)
	r.st.earliest++
	return t, ok
}

func (r timedRound) Reserve(j *sched.Job, t des.Time) {
	start := time.Now()
	r.inner.Reserve(j, t)
	r.st.wall += time.Since(start)
	r.st.reserves++
}

// diagnosingRound forwards Diagnostics untimed: the controller reads it
// once per round, outside the backfill engine.
type diagnosingRound struct {
	timedRound
	sched.Diagnoser
}
