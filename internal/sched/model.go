package sched

import (
	"fmt"
	"math"

	"wasched/internal/des"
	"wasched/internal/restrack"
)

// dimKind names one reservable resource of the reservation model.
type dimKind uint8

const (
	dimNodes dimKind = iota // compute nodes n_j against N
	dimRate                 // Lustre bandwidth r_j against R_limit (Algorithm 2)
	dimBB                   // burst-buffer bytes against the shared pool
)

// dim is one resource dimension: what a job demands of it, against what
// limit, and whether the measured-throughput guard books onto it.
type dim struct {
	kind  dimKind
	limit float64
	// guard books the measured throughput the running jobs' estimates do
	// not explain (Algorithm 2 lines 7–8); rate dimensions only.
	guard bool
}

// need is j's demand of the dimension, clamped so that no external
// estimate can exceed the limit or go negative.
func (d *dim) need(j *Job) float64 {
	switch d.kind {
	case dimNodes:
		return float64(j.Nodes)
	case dimRate:
		return clampRate(j.Rate, d.limit)
	default:
		return clampNonNeg(j.BBBytes)
	}
}

// model is a built-in policy's reservation model: the ordered resource
// dimensions a job must fit, the plan lookahead, the adaptive overlay and
// which diagnostics the policy reports.
type model struct {
	dims []dim
	// horizon bounds the lookahead (PlanPolicy.Horizon); zero is unbounded.
	horizon des.Duration
	// adaptive, when set, adds the R̃ / two-group / AT overlay of
	// Algorithms 5–7 on top of the dimensions.
	adaptive *AdaptivePolicy
	// reorders is set when a tetris+ wrapper reorders the examined
	// window; bb+ and tbf+ only pass the inner policy's order through.
	reorders bool
	// The "limit" and "bb_capacity" diagnostics, reported when set.
	limit, bbCapacity     float64
	reportLimit, reportBB bool
}

// modelOf validates p and returns its reservation model. ok is false for
// a policy defined outside this package, and for a tetris+ or tbf+
// wrapper around one: those keep their own NewRound and have no session.
// Every built-in policy is validated here, so NewRound and newSession
// reject exactly the same malformed policies.
func modelOf(p Policy) (m model, ok bool) {
	switch p := p.(type) {
	case NodePolicy:
		return nodeModel("NodePolicy", p.TotalNodes), true
	case TBFPolicy:
		// The token layer, not the scheduler, owns bandwidth.
		return nodeModel("TBFPolicy", p.TotalNodes), true
	case IOAwarePolicy:
		return ioModel("IOAwarePolicy", p.TotalNodes, p.ThroughputLimit, p.IgnoreMeasured), true
	case AdaptivePolicy:
		m := ioModel("AdaptivePolicy", p.TotalNodes, p.ThroughputLimit, false)
		if p.QoSFraction < 0 || p.QoSFraction > 1 {
			panic(fmt.Sprintf("sched: AdaptivePolicy.QoSFraction must be in [0,1], got %g", p.QoSFraction))
		}
		m.adaptive = &p
		return m, true
	case PlanPolicy:
		m := nodeModel("PlanPolicy", p.TotalNodes)
		checkNonNeg("PlanPolicy.BBCapacity", p.BBCapacity)
		checkNonNeg("PlanPolicy.ThroughputLimit", p.ThroughputLimit)
		if p.Horizon < 0 {
			panic(fmt.Sprintf("sched: PlanPolicy.Horizon must be non-negative, got %d", p.Horizon))
		}
		m.dims = append(m.dims, dim{kind: dimBB, limit: p.BBCapacity})
		if p.ThroughputLimit > 0 {
			m.dims = append(m.dims, dim{kind: dimRate, limit: p.ThroughputLimit, guard: true})
		}
		m.horizon = p.Horizon
		m.limit, m.reportLimit = p.ThroughputLimit, true
		m.bbCapacity, m.reportBB = p.BBCapacity, true
		return m, true
	case BBAwarePolicy:
		if p.Inner == nil {
			panic("sched: BBAwarePolicy needs an inner policy")
		}
		checkNonNeg("BBAwarePolicy.Capacity", p.Capacity)
		m, ok := modelOf(p.Inner)
		if !ok {
			panic(fmt.Sprintf("sched: BBAwarePolicy.Inner must be a built-in policy, got %T", p.Inner))
		}
		m.dims = append(m.dims, dim{kind: dimBB, limit: p.Capacity})
		return m, true
	case TetrisPolicy:
		// Tetris is a window ordering over its inner policy's model.
		if p.Inner == nil {
			panic("sched: TetrisPolicy needs an inner policy")
		}
		checkNodes("TetrisPolicy", p.TotalNodes)
		m, ok := modelOf(p.Inner)
		m.reorders = true
		return m, ok
	case TBFAwarePolicy:
		// The tbf+ wrapper changes no decision.
		if p.Inner == nil {
			panic("sched: TBFAwarePolicy needs an inner policy")
		}
		return modelOf(p.Inner)
	}
	return model{}, false
}

// readsMeasured reports whether a rate dimension carries the guard.
func (m *model) readsMeasured() bool {
	for i := range m.dims {
		if m.dims[i].guard {
			return true
		}
	}
	return false
}

// nodeModel is the node-only model of default Slurm.
func nodeModel(policy string, nodes int) model {
	checkNodes(policy, nodes)
	// Room for the BB and bandwidth dimensions plan and bb+ append.
	//waschedlint:allow hotalloc a driver builds its model once, at its first round
	dims := make([]dim, 1, 3)
	dims[0] = dim{kind: dimNodes, limit: float64(nodes)}
	return model{dims: dims}
}

// ioModel is the I/O-aware model: nodes plus R_limit bandwidth.
func ioModel(policy string, nodes int, limit float64, ignoreMeasured bool) model {
	m := nodeModel(policy, nodes)
	if limit <= 0 {
		panic(fmt.Sprintf("sched: %s.ThroughputLimit must be positive, got %g", policy, limit))
	}
	m.dims = append(m.dims, dim{kind: dimRate, limit: limit, guard: !ignoreMeasured})
	m.limit, m.reportLimit = limit, true
	return m
}

func checkNodes(policy string, nodes int) {
	if nodes <= 0 {
		panic(fmt.Sprintf("sched: %s.TotalNodes must be positive, got %d", policy, nodes))
	}
}

func checkNonNeg(field string, v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("sched: %s must be non-negative, got %g", field, v))
	}
}

// clampRate caps a job's estimated rate at the throughput limit: no single
// job can demand more than the entire file system, and an estimate above
// the limit (possible under congested measurements) would otherwise pend
// the job forever. Invalid (negative or NaN) estimates count as zero.
func clampRate(r, limit float64) float64 {
	if r > limit {
		return limit
	}
	return clampNonNeg(r)
}

// clampNonNeg treats an invalid (negative or NaN) rate estimate as zero so
// that it cannot push the target throughput R̃ negative or poison it.
func clampNonNeg(r float64) float64 {
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// newRound is InitializeReservationTracker (Algorithms 1, 2 and 5) for a
// built-in policy: every running job is booked until its limit, then this
// round's state goes on top. A tetris+ or tbf+ wrapper around a policy
// from outside this package has no model and delegates to inner.
func newRound(p, inner Policy, in RoundInput) Round {
	m, ok := modelOf(p)
	if !ok {
		return inner.NewRound(in)
	}
	r := emptyRound(m)
	for _, j := range in.Running {
		end := j.StartedAt.Add(j.Limit)
		for i := range m.dims {
			r.work[i].Add(in.Now, end, m.dims[i].need(j))
		}
	}
	return r.begin(in)
}

// round is one scheduling round's reservation state: one working profile
// per model dimension, plus the adaptive overlay.
type round struct {
	m    model
	work []restrack.Profile
	// need holds the demand per dimension of the job EarliestStart is
	// placing, computed once per call.
	need    []float64
	horizon des.Time
	// wake is the earliest time at which a round over the same profiles
	// and queue could decide differently from this one (Session.Quiet):
	// the least start EarliestStart returned, the time a job rejected by
	// the horizon comes into the plan window, and now itself when a
	// booking moves with now. Before it, an adaptive round can still
	// decide differently only if its R̃' leaves the overlay's quiet band.
	// A carried round restarts it from planWake, since the start-now
	// bookings of the round it extends are in the base by then, and
	// lowers it by the outcomes of the jobs it adds.
	wake des.Time
	// planWake is wake over the outcomes that book nothing at now:
	// future starts and horizon rejections. Before it, the plan stays
	// what a round would make once this round's start-now bookings are
	// in the base (Session.Carry).
	planWake des.Time
	// guarded records that the measured-throughput guard booked anything
	// this round, and measured the throughput the round read.
	guarded  bool
	measured float64
	// deferred records that a job the plan examined did not start at its
	// now; atMoved that a start-now booking into AT may change what a
	// round at a later now decides for a job before it (noteStart), so
	// the plan cannot be carried. A carried round keeps both, as it keeps
	// the plan.
	deferred, atMoved bool
	ov                overlay
	// diag is the map Diagnostics fills, reused across a session's rounds.
	diag map[string]float64
}

func emptyRound(m model) *round {
	//waschedlint:allow hotalloc a driver makes its session's round once, at its first round
	return &round{m: m, work: make([]restrack.Profile, len(m.dims)), need: make([]float64, len(m.dims))}
}

// begin layers this round's state over the running set's bookings already
// in r.work: the measured-throughput guard and the adaptive overlay.
func (r *round) begin(in RoundInput) Round {
	r.wake, r.planWake = des.MaxTime, des.MaxTime
	r.setHorizon(in.Now)
	r.guarded, r.measured = false, in.MeasuredThroughput
	r.deferred, r.atMoved = false, false
	for i := range r.m.dims {
		if d := &r.m.dims[i]; d.guard {
			booked, residual := bookGuard(&r.work[i], d.limit, in)
			r.guarded = r.guarded || booked
			if residual {
				r.wake = in.Now
			}
		}
	}
	if r.m.adaptive != nil {
		r.ov.fill(r.m.adaptive, in)
	}
	return r.handle()
}

// handle is the Round the engine drives: diagRound when the policy
// reports diagnostics.
func (r *round) handle() Round {
	if r.m.reportLimit || r.m.reportBB || r.m.adaptive != nil {
		return diagRound{r}
	}
	return r
}

func (r *round) setHorizon(now des.Time) {
	r.horizon = des.MaxTime
	if r.m.horizon > 0 {
		r.horizon = now.Add(r.m.horizon)
	}
}

// extend carries this round's plan to in.Now when that is exactly the plan
// a round at in.Now would make for the jobs it examined, once their
// start-now bookings are in the base (Session.Carry; DESIGN.md, "Carried
// rounds"): in.Now is before every future start and horizon entry, and the
// guard books nothing now and booked nothing then. An adaptive round also
// needs its overlay to hold at in.Now (overlay.carry) and no start to have
// booked into AT what moves an earlier job's plan (atMoved). On success
// the round decides at in.Now, and its wake starts from the plan's.
func (r *round) extend(in RoundInput) bool {
	if r.guarded || r.atMoved || in.Now >= r.planWake || r.guardBooks(in) {
		return false
	}
	if p := r.m.adaptive; p != nil && !r.ov.carry(p, in) {
		return false
	}
	r.wake = r.planWake
	r.measured = in.MeasuredThroughput
	r.setHorizon(in.Now)
	return true
}

// guardBooks reports whether the measured-throughput guard books anything
// in a round over in.
func (r *round) guardBooks(in RoundInput) bool {
	for i := range r.m.dims {
		if d := &r.m.dims[i]; d.guard && in.MeasuredThroughput > explained(d.limit, in) {
			return true
		}
	}
	return false
}

// explained is the throughput the running jobs' clamped estimates
// account for; the guard books what the measurement shows beyond it.
func explained(limit float64, in RoundInput) float64 {
	sum := 0.0
	for _, j := range in.Running {
		sum += clampRate(j.Rate, limit)
	}
	return sum
}

// bookGuard implements Algorithm 2 lines 7–8: when the measured throughput
// exceeds the sum of the running jobs' estimates, reserve the difference so
// the schedule cannot overload the file system on the strength of
// under-estimates (e.g. jobs with no history yet). With running jobs the
// excess is booked until the last of them ends; with none, the traffic is
// residual/external and is booked over MeasuredResidualHorizon; residual
// is then true, because that window moves with now.
func bookGuard(w *restrack.Profile, limit float64, in RoundInput) (booked, residual bool) {
	sumRunning := explained(limit, in)
	if !(in.MeasuredThroughput > sumRunning) { // a NaN measurement books nothing
		return false, false
	}
	end := in.Now
	for _, j := range in.Running {
		if e := j.StartedAt.Add(j.Limit); e > end {
			end = e
		}
	}
	residual = len(in.Running) == 0
	if residual {
		end = in.Now.Add(MeasuredResidualHorizon)
	}
	w.Add(in.Now, end, in.MeasuredThroughput-sumRunning)
	return true, residual
}

// EarliestStart is Algorithm 4 over every dimension: fit each in turn
// from the candidate time, restart from the first when one moves it, and
// stop once all agree. Regular jobs of an adaptive policy must also fit
// the adjusted tracker AT (Algorithm 7). Each fit returns the least
// feasible time at or after its argument, so the fixpoint is the least
// time feasible everywhere whatever the dimension order. A start past the
// plan horizon is infeasible: the engine skips the job without burning
// backfill budget and it is re-planned next round. Both outcomes lower
// the round's wake time, and so does a start after tmin (the engine's
// now), which also lowers the plan's wake. A start at tmin of an adaptive
// round is checked against the jobs deferred before it (noteStart).
func (r *round) EarliestStart(j *Job, tmin des.Time) (des.Time, bool) {
	for i := range r.m.dims {
		if r.need[i] = r.m.dims[i].need(j); r.need[i] > r.m.dims[i].limit {
			return des.MaxTime, false
		}
	}
	n := len(r.m.dims)
	if r.m.adaptive != nil && !r.ov.isZeroJob(j) {
		n++
	}
	t := tmin
	for i := 0; i < n; {
		u, ok := r.fit(i, j, t)
		if !ok {
			r.deferred = true
			return des.MaxTime, false
		}
		if u != t && i > 0 {
			i = 0 // t moved: the earlier dimensions must agree again
		} else {
			i++
		}
		t = u
	}
	if t > r.horizon {
		// The job enters the plan window once now reaches t − horizon.
		enter := t.Add(-r.m.horizon)
		r.planWake = min(r.planWake, enter)
		r.wake = min(r.wake, enter)
		r.deferred = true
		return des.MaxTime, false
	}
	if t > tmin {
		r.planWake = min(r.planWake, t)
		r.deferred = true
	} else if r.m.adaptive != nil {
		r.noteStart(j, tmin)
	}
	r.wake = min(r.wake, t)
	return t, true
}

// noteStart sets atMoved when j, starting at now, books into AT what a
// round at a later now would see under the jobs this round deferred
// before it. AT's fit is a level test that leaves the job's own
// contribution out, so unlike a node or rate booking, a start-now booking
// can push AT past R̃' inside an earlier reservation's window, or, when
// negative, free a time an earlier fit found infeasible. A zero job books
// nothing here, yet once it runs overlay.fill books its adjusted rate.
// Nodes, rate and BB need no such check: j was fitted on top of every
// earlier booking, its own need included (DESIGN.md, "Carried rounds").
// Adaptive policies have no plan horizon, so planWake is the least
// planned start so far.
func (r *round) noteStart(j *Job, now des.Time) {
	a := r.ov.adjusted(j)
	switch {
	case r.ov.isZeroJob(j):
		r.atMoved = r.atMoved || a != 0
	case a < 0:
		r.atMoved = r.atMoved || r.deferred
	case a > 0:
		r.atMoved = r.atMoved || r.planWake < now.Add(j.Limit)
	}
}

// quiet reports whether a round at in.Now over this round's profiles and
// queue would decide as this one did. Every fit returns the least feasible
// time at or after its argument, so from a now before the wake time each
// job lands on the same start as here, books the same reservation in the
// same order, and none starts now. The bookings made from now (running
// jobs, the guard while jobs run, AT) keep their values over [in.Now, ∞)
// while the guard books the same excess: the measurement is bit-equal, or
// the guard booked nothing then and books nothing now. The adaptive target
// R̃ reads the running jobs' remaining(now), so R̃' drifts with time; AT
// is the only thing it limits. An adaptive round is quiet only if R̃'
// recomputed at in.Now leaves every AT value this round's fits examined on
// the same side of the limit (the overlay's band): then every time those
// fits proved infeasible stays infeasible, every window they accepted
// stays accepted, and each EarliestStart returns what it returned here
// (DESIGN.md, "Quiet rounds"). The round then adopts R̃ and R̃' at in.Now,
// as a carried one does, so its diagnostics are a fresh round's.
func (r *round) quiet(in RoundInput) bool {
	if in.Now >= r.wake {
		return false
	}
	if in.MeasuredThroughput != r.measured && (r.guarded || r.guardBooks(in)) {
		return false
	}
	p := r.m.adaptive
	if p == nil {
		return true
	}
	target := p.target(in)
	adj := p.adjustedTarget(target, r.ov.rZeroBar)
	if !r.ov.band.Holds(0, adj) {
		return false
	}
	r.ov.target, r.ov.adjTarget = target, adj
	return true
}

// fit is dimension i's earliest fit for j from t; the index past the last
// dimension is the adaptive overlay.
func (r *round) fit(i int, j *Job, t des.Time) (des.Time, bool) {
	if i == len(r.m.dims) {
		// "Earliest time when no more than R̃' is reserved in AT": the
		// job's own contribution is not part of the test — the target is
		// a level to fill up to, not a cap on the job itself.
		return r.ov.at.EarliestFitBand(t, j.Limit, 0, r.ov.adjTarget, &r.ov.band)
	}
	return r.work[i].EarliestFit(t, j.Limit, r.need[i], r.m.dims[i].limit)
}

// Reserve is ReserveResources (Algorithms 3 and 6): j's demand in every
// dimension over [t, t+L_j), and a regular job's adjusted rate in AT.
func (r *round) Reserve(j *Job, t des.Time) {
	end := t.Add(j.Limit)
	for i := range r.m.dims {
		r.work[i].Add(t, end, r.m.dims[i].need(j))
	}
	if r.m.adaptive != nil && !r.ov.isZeroJob(j) {
		r.ov.at.Add(t, end, r.ov.adjusted(j))
	}
}

// diagRound is the round of a policy that reports diagnostics; node-only
// rounds report none and are no Diagnoser.
type diagRound struct{ *round }

// Diagnostics implements Diagnoser: the throughput limit, the plan's BB
// capacity, and the adaptive target R̃, adjusted target R̃', two-group
// threshold r* and zero-group load r̄_zero. The map belongs to the round:
// a session refills the same map on every call, so it is valid until the
// next Diagnostics call on a Round of that session.
func (r diagRound) Diagnostics() map[string]float64 {
	if r.diag == nil {
		r.diag = make(map[string]float64, 5)
	}
	d := r.diag
	if r.m.reportLimit {
		d["limit"] = r.m.limit
	}
	if r.m.reportBB {
		d["bb_capacity"] = r.m.bbCapacity
	}
	if r.m.adaptive != nil {
		d["target"] = r.ov.target
		d["adjusted_target"] = r.ov.adjTarget
		d["r_star"] = r.ov.rStar
		d["r_zero_bar"] = r.ov.rZeroBar
	}
	return d
}
