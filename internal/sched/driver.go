package sched

import (
	"fmt"
	"math"
	"slices"

	"wasched/internal/des"
)

// RoundKind says how the Driver decided a round.
type RoundKind uint8

const (
	FullRound    RoundKind = iota // the engine re-planned the examined window
	CarriedRound                  // the last plan was extended (DESIGN.md, "Carried rounds")
	QuietRound                    // the last round's decisions stand (DESIGN.md, "Quiet rounds")
)

func (k RoundKind) String() string { return [...]string{"full", "carried", "quiet"}[k] }

// unstarted is a queued job's StartedAt; the driver drops the jobs whose
// StartedAt is anything else from its queue.
const unstarted des.Time = -1

// Driver runs one policy's backfill rounds (paper Algorithm 1). It owns
// the waiting queue, kept in queue order by insertion, the policy's
// session, the engine's buffers and the choice between a quiet, a carried
// and a full round; a policy defined outside this package has no session
// and gets a from-scratch round every time. The caller keeps the running
// set, in an order of its own, passes it in each round's input, and
// reports every event: a job becomes schedulable (Add); a start-now
// decision of the last round starts (Started, with StartedAt set) or is
// refused by an admission gate (Refused); a running job ends (Finished) or
// its rate estimate moves (Updated); queued jobs' priorities move
// (Reprioritized); anything else a round reads changes (Changed), such as
// queued jobs' estimates. A job's Nodes, Limit and BBBytes stay fixed
// while it waits or runs. Everything is made when first used.
type Driver struct {
	policy Policy
	opt    Options
	made   bool
	sess   *session // nil for a policy without a reservation model
	rn     runner
	queue  []*Job
	last   Round // the last executed (full or carried) round's
	// dirty is set by every event since the last executed round; only a
	// clean round may be quiet. replan is set by what a carried plan
	// cannot absorb: all but starts and arrivals behind the planned jobs.
	// resort is set when priorities moved.
	dirty, replan, resort bool
	// planned counts the queue's leading jobs the last executed round
	// decided and left waiting; started, the starts still queued.
	planned, started     int
	full, carried, quiet int
	// fail and plan are CheckSkippedRounds' callback and kept plan.
	fail func(detail string)
	plan []Decision
}

// NewDriver returns a driver for p under the engine options opt.
func NewDriver(p Policy, opt Options) *Driver {
	return &Driver{policy: p, opt: opt, dirty: true, replan: true}
}

func (d *Driver) init() {
	if !d.made {
		d.made, d.sess = true, newSession(d.policy)
	}
}

// ReadsMeasured reports whether a round of the driver's policy can read
// RoundInput.MeasuredThroughput: true when a rate dimension of its model
// carries the measured-throughput guard, and for a policy defined outside
// this package, whose rounds may read anything. A caller for which the
// measurement costs work passes zero instead when it is false; no round
// of such a policy changes with the value.
func (d *Driver) ReadsMeasured() bool {
	d.init()
	return d.sess == nil || d.sess.rnd.m.readsMeasured()
}

// Rounds counts the rounds run, by kind.
func (d *Driver) Rounds() (full, carried, quiet int) { return d.full, d.carried, d.quiet }

// Planned returns how many of the queue's leading jobs the last executed
// round decided and left waiting: the plan a carried round extends.
func (d *Driver) Planned() int { return d.planned }

// Add queues j.
func (d *Driver) Add(j *Job) {
	d.drop()
	if !d.replan && d.planned > 0 && queueLess(j, d.queue[d.planned-1]) {
		d.replan = true
	}
	j.StartedAt = unstarted
	d.queue = queueInsert(d.queue, j)
	d.dirty = true
}

// Started records that j started at j.StartedAt.
func (d *Driver) Started(j *Job) {
	if d.sess != nil {
		d.sess.JobStarted(j)
	}
	d.planned--
	d.started++
	d.dirty = true
}

// Refused records that j did not start: it stays queued.
func (d *Driver) Refused(j *Job) {
	j.StartedAt = unstarted
	d.dirty, d.replan = true, true
}

// Finished records that the running job j ended at end.
func (d *Driver) Finished(j *Job, end des.Time) {
	if d.sess != nil {
		d.sess.JobFinished(j, end)
	}
	d.dirty, d.replan = true, true
}

// Updated records that the running job j's rate estimate moved from
// oldRate to j.Rate at now.
func (d *Driver) Updated(j *Job, oldRate float64, now des.Time) {
	if d.sess != nil {
		d.sess.JobUpdated(j, oldRate, now)
	}
	d.dirty, d.replan = true, true
}

// Changed records that something else a round reads changed; the next
// round re-plans.
func (d *Driver) Changed() { d.dirty, d.replan = true, true }

// Reprioritized records that queued jobs' priorities moved; the next
// round re-plans, over the queue re-sorted if its order moved.
func (d *Driver) Reprioritized() { d.dirty, d.replan, d.resort = true, true, true }

// drop removes the started jobs from the queue in one pass.
func (d *Driver) drop() {
	if d.started == 0 {
		return
	}
	d.started = 0
	kept := d.queue[:0]
	for _, j := range d.queue {
		if j.StartedAt == unstarted {
			kept = append(kept, j)
		}
	}
	clear(d.queue[len(kept):])
	d.queue = kept
}

// Round runs the round at in.Now over the queue, which it puts in
// in.Waiting. A round no event separates from the last executed one is
// quiet when the session proves it; one that only that round's own starts
// and arrivals behind the jobs it examined separate from it is carried
// when the session allows and backfill is unlimited; any other re-plans.
// Round returns the decisions to act on (none when quiet, the added jobs'
// when carried), the Round they were made on and the kind. The caller
// reports each start-now decision through Started or Refused before it
// calls the driver again.
//
//waschedlint:hotpath
func (d *Driver) Round(in *RoundInput) ([]Decision, Round, RoundKind) {
	d.init()
	d.drop()
	if d.resort {
		d.resort = false
		if !slices.IsSortedFunc(d.queue, queueCmp) {
			slices.SortStableFunc(d.queue, queueCmp)
		}
	}
	in.Waiting = d.queue
	if d.sess == nil {
		d.full++
		d.last = d.policy.NewRound(*in)
		decisions := d.rn.run(d.policy, d.last, *in, d.opt)
		d.planned = len(decisions)
		return decisions, d.last, FullRound
	}
	if !d.dirty && d.sess.Quiet(*in) {
		d.quiet++
		if d.fail != nil {
			d.check(QuietRound, *in, nil)
		}
		return nil, d.last, QuietRound
	}
	examined := len(d.queue)
	if w := d.opt.MaxJobTest; w > 0 && examined > w {
		examined = w
	}
	kind, decisions := FullRound, []Decision(nil)
	if d.opt.BackfillMax == Unlimited && !d.replan {
		if rt, ok := d.sess.Carry(*in); ok {
			kind, d.last = CarriedRound, rt
			d.carried++
			tail := *in
			tail.Waiting = d.queue[d.planned:examined]
			decisions = d.rn.run(d.policy, rt, tail, Options{})
		}
	}
	if kind == FullRound {
		d.full++
		d.last = d.sess.BeginRound(*in)
		decisions = d.rn.run(d.policy, d.last, *in, d.opt)
		d.planned = 0
	}
	d.dirty, d.replan = false, false
	d.planned += len(decisions) // one decision per examined job
	if d.fail != nil {
		d.check(kind, *in, decisions)
	}
	return decisions, d.last, kind
}

// CheckSkippedRounds holds every later quiet and carried round to a
// from-scratch RunRound over the same input and reports each disagreement
// to fail; nil turns the check off. The fresh round must make the kept
// plan's decisions (the non-start ones of the last full round and of each
// carried tail since), followed by a carried tail's own, and a Diagnoser's
// target and adjusted target must be bit-equal. The plan is kept only
// while checking; the next round re-plans, so that there is one.
func (d *Driver) CheckSkippedRounds(fail func(detail string)) {
	d.fail = fail
	d.dirty, d.replan = true, true
}

// check holds the round just decided to a fresh one, unless it is full,
// and updates the kept plan.
func (d *Driver) check(kind RoundKind, in RoundInput, decisions []Decision) {
	if kind == FullRound {
		d.plan = d.plan[:0]
	} else if detail := d.verify(in, decisions); detail != "" {
		//waschedlint:allow hotalloc a failed check's report, with checks on only
		d.fail(fmt.Sprintf("%v: %s round %s", in.Now, kind, detail))
	}
	for _, dc := range decisions {
		if !dc.StartNow {
			d.plan = append(d.plan, dc)
		}
	}
}

// verify returns how a fresh round disagrees with the kept plan followed
// by tail, or "".
func (d *Driver) verify(in RoundInput, tail []Decision) string {
	fresh, rt := RunRound(d.policy, in, d.opt)
	got := append(d.plan[:len(d.plan):len(d.plan)], tail...)
	if len(got) != len(fresh) {
		//waschedlint:allow hotalloc a failed check's report, with checks on only
		return fmt.Sprintf("decided %d jobs, a fresh round %d", len(got), len(fresh))
	}
	for i, f := range fresh {
		if got[i] != f {
			//waschedlint:allow hotalloc a failed check's report, with checks on only
			return fmt.Sprintf("job %s %s, a fresh round %s", f.Job.ID, decisionString(got[i]), decisionString(f))
		}
	}
	if fd, ok := rt.(Diagnoser); ok {
		got, want := d.last.(Diagnoser).Diagnostics(), fd.Diagnostics()
		for _, k := range [...]string{"target", "adjusted_target"} {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				//waschedlint:allow hotalloc a failed check's report, with checks on only
				return fmt.Sprintf("%s %v, a fresh round's %v", k, got[k], want[k])
			}
		}
	}
	return ""
}

// decisionString renders one decision for a check report.
func decisionString(d Decision) string {
	switch {
	case d.StartNow:
		return "starts now"
	case d.Reserved:
		//waschedlint:allow hotalloc a failed check's report, with checks on only
		return fmt.Sprintf("planned at %v", d.PlannedStart)
	}
	return "skipped"
}
