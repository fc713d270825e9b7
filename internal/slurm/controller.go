// Package slurm implements the resource-manager controller of the
// prototype: the job queue, submission and lifetime management, periodic
// backfill scheduling rounds, time-limit enforcement, and the wiring
// between the scheduling policy (internal/sched), the analytics service
// (internal/analytics) and the cluster (internal/cluster).
//
// It corresponds to the paper's modified slurmctld plus scheduling plugin
// (Fig. 2): at the beginning of every scheduling round the controller
// fetches the latest job resource estimates and the measured Lustre
// throughput from the analytical services, hands the queue to the policy,
// and applies the policy's start decisions.
package slurm

import (
	"fmt"
	"math"
	"sort"

	"wasched/internal/analytics"
	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/sched"
)

// BurstBuffer is the controller's view of a burst-buffer tier
// (internal/bb.Tier implements it). Admit reserves capacity for a start
// (an error defers the start to a later round), Wrap prefixes the job's
// program with its stage-in, and JobEnded triggers the dirty-data drain
// and eventual capacity release.
type BurstBuffer interface {
	Feasible(bytes float64) error
	Admit(jobID string, bytes float64) error
	Wrap(jobID string, inner cluster.Program) cluster.Program
	JobEnded(jobID string, requeued bool)
}

// TokenLimiter is the controller's view of the client-side token-bucket
// bandwidth layer (internal/tbf.Limiter implements it). Every started job
// gets a bucket for the lifetime of its attempt — the layer is pure
// execution-time control, so unlike the burst buffer it needs no
// admission gate and works under any scheduling policy.
type TokenLimiter interface {
	Register(jobID string, nodes []string)
	Unregister(jobID string)
}

// JobState is the lifecycle state of a job record.
type JobState int

// Job lifecycle states.
const (
	StatePending JobState = iota
	StateRunning
	StateCompleted
	StateTimeout // killed at its requested limit L_j
)

// String returns the Slurm-style state name.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateCompleted:
		return "COMPLETED"
	case StateTimeout:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobSpec is a job submission request.
type JobSpec struct {
	// Name labels the job in traces.
	Name string
	// Fingerprint identifies the job's class for the estimator. Empty
	// defaults to Name.
	Fingerprint string
	// Nodes is the requested node count n_j.
	Nodes int
	// Limit is the requested runtime limit L_j.
	Limit des.Duration
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int64
	// Program is the job's behaviour once started.
	Program cluster.Program
	// DeclaredRate is the user-declared Lustre throughput in bytes/s for
	// the static-license integration path (paper §II-A); ignored unless
	// Config.UseDeclaredRates is set.
	DeclaredRate float64
	// User is the submitting user for fair-share accounting (empty = the
	// anonymous user).
	User string
	// BBBytes is the job's burst-buffer reservation request in bytes
	// (Slurm's #DW capacity). Zero requests no burst buffer; positive
	// requests require an attached tier (AttachBB) and gate the start on
	// admission: a start decision whose demand does not fit the free pool
	// is deferred to a later round.
	BBBytes float64
}

// validate checks a spec against the cluster.
func (s JobSpec) validate(clusterSize int) error {
	if s.Nodes <= 0 {
		return fmt.Errorf("slurm: job %q requests %d nodes", s.Name, s.Nodes)
	}
	if s.Nodes > clusterSize {
		return fmt.Errorf("slurm: job %q requests %d nodes, cluster has %d", s.Name, s.Nodes, clusterSize)
	}
	if s.Limit <= 0 {
		return fmt.Errorf("slurm: job %q needs a positive time limit", s.Name)
	}
	if s.Program == nil {
		return fmt.Errorf("slurm: job %q has no program", s.Name)
	}
	if s.BBBytes < 0 || math.IsNaN(s.BBBytes) {
		return fmt.Errorf("slurm: job %q requests %g burst-buffer bytes", s.Name, s.BBBytes)
	}
	return nil
}

// JobRecord is the controller's accounting record for one job.
type JobRecord struct {
	ID     string
	Spec   JobSpec
	State  JobState
	Submit des.Time // s_j
	Start  des.Time // b_j (zero until started)
	End    des.Time // c_j (zero until ended)
	Nodes  []string // allocated nodes (set at start)
	// EligibleAt is when the job last (re)joined the pending queue: the
	// submit time, or the most recent requeue. The FIFO-within-class
	// invariant orders attempts by this, not by Submit — a requeued job
	// keeps its submit-time queue position but was demonstrably not
	// waiting between its preemption and its restart.
	EligibleAt des.Time
	// Attempts counts how many times the job has started (>1 after
	// requeue preemption).
	Attempts int

	view    sched.Job // the scheduler's mutable view
	timeout des.Event
	// cls is the job's estimate class, set when it first joins the queue;
	// queued is set while its view is in the controller's waiting queue.
	cls    *estClass
	queued bool
}

// WaitTime returns Q_j for started jobs.
func (r *JobRecord) WaitTime() des.Duration { return r.Start.Sub(r.Submit) }

// Runtime returns D_j for ended jobs.
func (r *JobRecord) Runtime() des.Duration { return r.End.Sub(r.Start) }

// EventKind labels controller notifications.
type EventKind int

// Event kinds.
const (
	EventSubmit EventKind = iota
	EventStart
	EventEnd
	// EventRequeue fires when a running job is preempted and returned to
	// the queue.
	EventRequeue
)

// Event is a job lifecycle notification delivered to listeners.
type Event struct {
	Kind EventKind
	Job  *JobRecord
	At   des.Time
}

// Config tunes the controller.
type Config struct {
	// SchedInterval is the period of backfill scheduling rounds (Slurm
	// bf_interval; the paper's prototype uses the default 30 s).
	SchedInterval des.Duration
	// Options configure the backfill engine (BackfillMax, MaxJobTest).
	Options sched.Options
	// UseDeclaredRates feeds JobSpec.DeclaredRate to the policy instead
	// of analytics estimates — the static "license" integration the paper
	// argues against (§II-A); used by the ablation experiments.
	UseDeclaredRates bool
	// Priority optionally recomputes job priorities every round (Slurm's
	// priority/multifactor plugin). Nil keeps static submit priorities.
	Priority PriorityPlugin
	// Preemption enables requeue-based preemption (Slurm's
	// PreemptMode=REQUEUE) for starvation control.
	Preemption PreemptionConfig
	// RateQuantile, when in (0,1], replaces the EWMA rate estimate with
	// the given quantile of the class's observed rates (falling back to
	// the EWMA when no history exists). 0.9 makes the I/O-aware scheduler
	// conservative: it budgets for the class's near-worst observed load.
	RateQuantile float64
}

// PreemptionConfig tunes requeue-based preemption: when the head of the
// queue has waited longer than MaxStarvation and still cannot start, the
// controller kills (and requeues) the lowest-priority running jobs whose
// priority trails the starved job's by at least PriorityGap, until enough
// nodes free up.
type PreemptionConfig struct {
	Enabled bool
	// MaxStarvation is how long the queue head may wait before preemption
	// triggers (0 = 30 min).
	MaxStarvation des.Duration
	// PriorityGap is the minimum priority difference between the starved
	// job and a victim.
	PriorityGap int64
}

// DefaultConfig matches the paper's Slurm setup: 30 s rounds, unlimited
// backfill reservations, whole queue examined.
func DefaultConfig() Config {
	return Config{
		SchedInterval: 30 * des.Second,
		Options:       sched.Options{BackfillMax: sched.Unlimited, MaxJobTest: 0},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SchedInterval <= 0 {
		return fmt.Errorf("slurm: SchedInterval must be positive, got %v", c.SchedInterval)
	}
	if c.Options.BackfillMax < 0 {
		return fmt.Errorf("slurm: BackfillMax must be non-negative, got %d", c.Options.BackfillMax)
	}
	if c.Options.MaxJobTest < 0 {
		return fmt.Errorf("slurm: MaxJobTest must be non-negative, got %d", c.Options.MaxJobTest)
	}
	if c.RateQuantile < 0 || c.RateQuantile > 1 {
		return fmt.Errorf("slurm: RateQuantile must be in [0,1], got %g", c.RateQuantile)
	}
	return nil
}

// Controller is the resource manager.
type Controller struct {
	eng    *des.Engine
	cl     *cluster.Cluster
	policy sched.Policy
	svc    *analytics.Service // may be nil (default policy needs none)
	cfg    Config

	pending []*JobRecord // arrival order
	running []*JobRecord // ID order
	done    []*JobRecord
	byID    map[string]*JobRecord
	nextID  int

	listeners   []func(Event)
	stopTicker  func()
	kickPending bool
	rounds      uint64
	started     bool
	lastDiag    map[string]float64
	requeuing   map[string]bool

	bb  BurstBuffer
	tbf TokenLimiter

	// Round state kept across rounds (scheduleRound). The driver holds
	// the schedulable queue, the session and the quiet/carry bookkeeping;
	// it and the buffers grow as used: Pretrain builds a scratch
	// controller per job class, so nothing is made or sized before it is
	// needed.
	drv          *sched.Driver
	runningViews []*sched.Job // running views in ID order
	joined       []*JobRecord // records that became schedulable since the last round
	classes      map[string]*estClass
	classList    []*estClass // classes in first-seen order
	estRev       uint64      // the analytics revision the views reflect
}

// estClass is one job class's estimates as the controller last read them
// from the analytics service.
type estClass struct {
	fingerprint string
	rate        float64
	runtime     des.Duration
}

// New creates a controller. svc may be nil when the policy ignores
// estimates (the default node policy); estimate-driven policies without a
// service see zero rates, which reproduces the "untrained, unmonitored"
// degenerate case.
func New(eng *des.Engine, cl *cluster.Cluster, policy sched.Policy, svc *analytics.Service, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("slurm: nil policy")
	}
	return &Controller{
		eng:       eng,
		cl:        cl,
		policy:    policy,
		svc:       svc,
		cfg:       cfg,
		drv:       sched.NewDriver(policy, cfg.Options),
		byID:      make(map[string]*JobRecord),
		requeuing: make(map[string]bool),
	}, nil
}

// AttachBB wires a burst-buffer tier into the start/end path. Call once
// during system assembly, before any BB-requesting job is submitted.
func (c *Controller) AttachBB(b BurstBuffer) {
	if c.bb != nil {
		panic("slurm: burst buffer already attached")
	}
	c.bb = b
}

// AttachTBF wires the token-bucket bandwidth limiter into the start/end
// path. Call once during system assembly.
func (c *Controller) AttachTBF(l TokenLimiter) {
	if c.tbf != nil {
		panic("slurm: token limiter already attached")
	}
	c.tbf = l
}

// OnEvent registers a lifecycle listener (used by the trace recorder).
func (c *Controller) OnEvent(fn func(Event)) { c.listeners = append(c.listeners, fn) }

func (c *Controller) emit(kind EventKind, r *JobRecord) {
	ev := Event{Kind: kind, Job: r, At: c.eng.Now()}
	for _, fn := range c.listeners {
		fn(ev)
	}
}

// Run starts the periodic scheduling rounds. Call once, after wiring.
func (c *Controller) Run() {
	if c.started {
		panic("slurm: controller already running")
	}
	c.started = true
	c.stopTicker = c.eng.Ticker(c.cfg.SchedInterval, "slurm/sched-round", func(des.Time) {
		c.scheduleRound()
	})
	c.kick()
}

// Stop halts scheduling (periodic rounds and event-driven kicks); running
// jobs keep running. Run may be called again to resume.
func (c *Controller) Stop() {
	if c.stopTicker != nil {
		c.stopTicker()
		c.stopTicker = nil
	}
	c.started = false
}

// Submit enqueues a job now and returns its record.
func (c *Controller) Submit(spec JobSpec) (*JobRecord, error) {
	if err := spec.validate(c.cl.Size()); err != nil {
		return nil, err
	}
	if spec.BBBytes > 0 {
		// Reject demands that could never be admitted (no tier, or more
		// than the whole pool) up front — deferral would pend them forever.
		if c.bb == nil {
			return nil, fmt.Errorf("slurm: job %q requests burst buffer but none is attached", spec.Name)
		}
		if err := c.bb.Feasible(spec.BBBytes); err != nil {
			return nil, fmt.Errorf("slurm: job %q: %w", spec.Name, err)
		}
	}
	c.nextID++
	fp := spec.Fingerprint
	if fp == "" {
		fp = spec.Name
		spec.Fingerprint = fp
	}
	r := &JobRecord{
		ID:         fmt.Sprintf("job-%05d", c.nextID),
		Spec:       spec,
		State:      StatePending,
		Submit:     c.eng.Now(),
		EligibleAt: c.eng.Now(),
	}
	r.view = sched.Job{
		ID:          r.ID,
		Fingerprint: fp,
		Nodes:       spec.Nodes,
		Limit:       spec.Limit,
		Submit:      r.Submit,
		Priority:    spec.Priority,
		BBBytes:     spec.BBBytes,
	}
	if c.cfg.UseDeclaredRates {
		r.view.Rate = spec.DeclaredRate // no runtime estimate: d_j falls back to L_j
	}
	c.pending = append(c.pending, r)
	c.joined = append(c.joined, r)
	c.byID[r.ID] = r
	c.emit(EventSubmit, r)
	if c.started {
		c.kick()
	}
	return r, nil
}

// SubmitAt schedules a submission at a future time (arrival processes).
func (c *Controller) SubmitAt(spec JobSpec, at des.Time) error {
	if err := spec.validate(c.cl.Size()); err != nil {
		return err
	}
	c.eng.At(at, "slurm/submit", func() {
		if _, err := c.Submit(spec); err != nil {
			panic(fmt.Sprintf("slurm: deferred submit: %v", err))
		}
	})
	return nil
}

// kick schedules an immediate extra round (coalesced) — Slurm's main
// scheduling loop reacting to submissions and completions.
func (c *Controller) kick() {
	if c.kickPending || !c.started {
		return
	}
	c.kickPending = true
	c.eng.After(0, "slurm/sched-kick", func() {
		c.kickPending = false
		c.scheduleRound()
	})
}

// syncEstimates re-reads every known job class's r_j and d_j when the
// analytics estimates changed since the last round, and copies changed
// values into the views of the pending and running jobs. A running job's
// changed rate is re-booked by the driver from now. Under the license
// configuration views keep the declared rate Submit set, and without a
// service they keep no estimate.
func (c *Controller) syncEstimates(now des.Time) {
	if c.svc == nil || c.cfg.UseDeclaredRates || c.svc.Revision() == c.estRev {
		return
	}
	c.estRev = c.svc.Revision()
	changed := false
	for _, cl := range c.classList {
		changed = c.readClass(cl) || changed
	}
	if !changed {
		return
	}
	for _, r := range c.running {
		old := r.view.Rate
		r.view.Rate, r.view.EstRuntime = r.cls.rate, r.cls.runtime
		if r.view.Rate != old {
			c.drv.Updated(&r.view, old, now)
		}
	}
	for _, r := range c.pending {
		if r.cls != nil {
			r.view.Rate, r.view.EstRuntime = r.cls.rate, r.cls.runtime
		}
	}
	c.drv.Changed()
}

// readClass reads cl's estimates from the analytics service (the
// configured quantile of the observed rates, when set and known) and
// reports whether they changed.
func (c *Controller) readClass(cl *estClass) bool {
	rate, runtime := 0.0, des.Duration(0)
	if est, ok := c.svc.Estimate(cl.fingerprint); ok {
		rate, runtime = est.Rate, est.Runtime
		if q := c.cfg.RateQuantile; q > 0 {
			if qr, ok := c.svc.QuantileRate(cl.fingerprint, q); ok {
				rate = qr
			}
		}
	}
	changed := rate != cl.rate || runtime != cl.runtime
	cl.rate, cl.runtime = rate, runtime
	return changed
}

// admit puts the records that became schedulable since the last round
// into the driver's queue. A record joining for the first time gets its
// class and the class's estimates.
func (c *Controller) admit() {
	for _, r := range c.joined {
		if r.State != StatePending || r.queued {
			continue
		}
		if r.cls == nil && c.svc != nil && !c.cfg.UseDeclaredRates {
			c.classify(r)
		}
		r.queued = true
		c.drv.Add(&r.view)
	}
	c.joined = c.joined[:0]
}

// classify sets r's estimate class and copies its estimates into r's view.
func (c *Controller) classify(r *JobRecord) {
	cl, ok := c.classes[r.view.Fingerprint]
	if !ok {
		if c.classes == nil {
			//waschedlint:allow hotalloc once per controller, at the first class
			c.classes = make(map[string]*estClass)
		}
		//waschedlint:allow hotalloc once per job class
		cl = &estClass{fingerprint: r.view.Fingerprint}
		c.readClass(cl)
		c.classes[cl.fingerprint] = cl
		c.classList = append(c.classList, cl)
	}
	r.cls = cl
	r.view.Rate, r.view.EstRuntime = cl.rate, cl.runtime
}

// scheduleRound runs one backfill round (paper Algorithm 1) and starts the
// jobs the policy selected. The controller schedules through one
// sched.Driver, which keeps the queue and the running jobs' reservations
// across rounds and skips the rounds it proves quiet or extends the last
// plan where it can (DESIGN.md, "Quiet rounds" and "Carried rounds"); the
// controller keeps the running set in ID order and the estimates.
//
//waschedlint:hotpath
func (c *Controller) scheduleRound() {
	c.rounds++
	if len(c.pending) == 0 {
		return
	}
	// Line 1 inputs: latest estimates and the measured throughput.
	now := c.eng.Now()
	c.syncEstimates(now)
	c.admit()
	if c.cfg.Priority != nil {
		for _, r := range c.pending {
			if r.queued {
				r.view.Priority = c.cfg.Priority.Priority(r, now)
			}
		}
		c.drv.Reprioritized()
	}
	if c.cfg.Preemption.Enabled {
		// Preemption reads the queue head's wait and decision, which
		// change a round the driver cannot see.
		c.drv.Changed()
	}
	c.runningViews = c.runningViews[:0]
	for _, r := range c.running {
		c.runningViews = append(c.runningViews, &r.view)
	}
	measured := 0.0
	if c.drv.ReadsMeasured() && c.svc != nil && !c.cfg.UseDeclaredRates {
		measured = c.svc.CurrentThroughput()
	}
	in := sched.RoundInput{
		Now:                now,
		Running:            c.runningViews,
		MeasuredThroughput: measured,
	}
	decisions, round, _ := c.drv.Round(&in)
	if dg, ok := round.(sched.Diagnoser); ok {
		c.lastDiag = dg.Diagnostics()
	}
	for _, d := range decisions {
		if !d.StartNow {
			continue
		}
		r := c.byID[d.Job.ID]
		if c.bb != nil && r.Spec.BBBytes > 0 {
			// Burst-buffer admission gates the start: BB-blind policies
			// hand out start-now decisions the pool cannot hold (drains
			// of finished jobs still occupy it), and those jobs simply
			// stay pending and are retried next round. Plan-based
			// policies rarely hit this — they co-reserved the pool.
			if err := c.bb.Admit(r.ID, r.Spec.BBBytes); err != nil {
				c.drv.Refused(d.Job)
				continue
			}
		}
		c.startJob(r)
	}
	if c.cfg.Preemption.Enabled {
		c.maybePreempt(decisions)
	}
}

// maybePreempt implements requeue preemption: if the highest-priority
// waiting job has starved past the threshold and did not start this round,
// requeue enough lower-priority running jobs to free its nodes. The freed
// nodes are picked from the lowest-priority victims first.
func (c *Controller) maybePreempt(decisions []sched.Decision) {
	starve := c.cfg.Preemption.MaxStarvation
	if starve == 0 {
		starve = 30 * des.Minute
	}
	var head *JobRecord
	for _, d := range decisions {
		if d.StartNow {
			continue
		}
		head = c.byID[d.Job.ID]
		break
	}
	if head == nil || c.eng.Now().Sub(head.Submit) < starve {
		return
	}
	needed := head.Spec.Nodes - c.cl.FreeNodes()
	if needed <= 0 {
		return // blocked on something other than nodes; preemption cannot help
	}
	// Victims: running jobs whose priority trails by at least the gap,
	// lowest priority first, most recently started first as tiebreak.
	// Only a starved round with preemption on gets here.
	var victims []*JobRecord
	for _, r := range c.running {
		if head.view.Priority-r.view.Priority >= c.cfg.Preemption.PriorityGap {
			//waschedlint:allow hotalloc a starved round's victim list, with preemption on only
			victims = append(victims, r)
		}
	}
	//waschedlint:allow hotalloc a starved round's victim order, with preemption on only
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.view.Priority != vb.view.Priority {
			return va.view.Priority < vb.view.Priority
		}
		if va.Start != vb.Start {
			return va.Start > vb.Start
		}
		return va.ID < vb.ID
	})
	freed := 0
	for _, v := range victims {
		if freed >= needed {
			break
		}
		freed += v.Spec.Nodes
		c.requeue(v)
	}
}

// requeue kills a running job and returns it to the pending queue with its
// original submit time; the program restarts from scratch when the job is
// next scheduled (requeue preemption loses partial work, as in Slurm).
func (c *Controller) requeue(r *JobRecord) {
	if r.State != StateRunning {
		return
	}
	c.requeuing[r.ID] = true
	c.cl.Kill(r.ID)
}

// Diagnostics returns the most recent scheduling round's policy internals
// (the adaptive target R̃, the two-group threshold r*, ...) or nil when the
// policy exposes none. The map is refilled by the next round: read it
// before the simulation moves on, and do not mutate it.
func (c *Controller) Diagnostics() map[string]float64 { return c.lastDiag }

// startJob launches a pending job on the cluster and arms its time limit.
func (c *Controller) startJob(r *JobRecord) {
	if r.State != StatePending {
		panic(fmt.Sprintf("slurm: starting job %s in state %v", r.ID, r.State))
	}
	prog := r.Spec.Program
	if c.bb != nil && r.Spec.BBBytes > 0 {
		prog = c.bb.Wrap(r.ID, prog)
	}
	//waschedlint:allow hotalloc the end callback is made once per start, not per round
	exec, err := c.cl.Start(r.ID, r.Spec.Nodes, prog, func(e *cluster.Execution) {
		c.jobEnded(r, e)
	})
	if err != nil {
		// The policy promised the nodes are free; a failure here is a
		// scheduling bug, not a runtime condition.
		panic(fmt.Sprintf("slurm: start %s: %v", r.ID, err))
	}
	r.State = StateRunning
	r.Start = c.eng.Now()
	r.Nodes = exec.Nodes
	r.Attempts++
	r.view.StartedAt = r.Start
	c.removePending(r)
	r.queued = false
	c.addRunning(r)
	c.drv.Started(&r.view)
	if c.tbf != nil {
		c.tbf.Register(r.ID, exec.Nodes)
	}
	//waschedlint:allow hotalloc the time-limit event is made once per start, not per round
	r.timeout = c.eng.After(r.Spec.Limit, "slurm/timeout/"+r.ID, func() {
		c.cl.Kill(r.ID)
	})
	c.emit(EventStart, r)
}

func (c *Controller) removePending(r *JobRecord) {
	for i, p := range c.pending {
		if p == r {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("slurm: job %s not in pending queue", r.ID))
}

// addRunning inserts r into the running set, which is kept in ID order so
// that sums over it (the guard's explained throughput, the adaptive
// target) and the recorder's samples add in a reproducible order.
func (c *Controller) addRunning(r *JobRecord) {
	lo, hi := 0, len(c.running)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.running[m].ID < r.ID {
			lo = m + 1
		} else {
			hi = m
		}
	}
	c.running = append(c.running, nil)
	copy(c.running[lo+1:], c.running[lo:])
	c.running[lo] = r
}

// endRunning removes r from the running set and releases the unused tail
// of its reservations in the driver.
func (c *Controller) endRunning(r *JobRecord) {
	for i, p := range c.running {
		if p == r {
			c.running = append(c.running[:i], c.running[i+1:]...)
			break
		}
	}
	c.drv.Finished(&r.view, c.eng.Now())
}

// jobEnded finalises accounting when an execution finishes and notifies
// the analytics service so the job's class estimate updates (paper §III).
func (c *Controller) jobEnded(r *JobRecord, e *cluster.Execution) {
	c.eng.Cancel(r.timeout)
	r.timeout = des.Event{}
	if c.requeuing[r.ID] {
		// Preempted: back to the queue, original submit time preserved.
		// Emit while the attempt's Start/End/EligibleAt are still intact —
		// listeners (the trace recorder) record the finished attempt, which
		// is what lets the FIFO-within-class invariant keep running under
		// requeues instead of being skipped wholesale.
		delete(c.requeuing, r.ID)
		c.endRunning(r)
		r.State = StatePending
		r.End = c.eng.Now()
		if c.bb != nil && r.Spec.BBBytes > 0 {
			c.bb.JobEnded(r.ID, true)
		}
		if c.tbf != nil {
			c.tbf.Unregister(r.ID)
		}
		c.emit(EventRequeue, r)
		r.Start = 0
		r.End = 0
		r.Nodes = nil
		r.view.StartedAt = 0
		r.EligibleAt = c.eng.Now()
		c.pending = append(c.pending, r)
		c.joined = append(c.joined, r)
		c.kick()
		return
	}
	r.State = StateCompleted
	if e.Exit == cluster.ExitKilled {
		r.State = StateTimeout
	}
	r.End = c.eng.Now()
	c.endRunning(r)
	c.done = append(c.done, r)
	if c.bb != nil && r.Spec.BBBytes > 0 {
		c.bb.JobEnded(r.ID, false)
	}
	if c.tbf != nil {
		c.tbf.Unregister(r.ID)
	}
	if c.svc != nil {
		c.svc.JobCompleted(r.view.Fingerprint, r.Nodes, r.Start, r.End)
	}
	if c.cfg.Priority != nil {
		c.cfg.Priority.JobEnded(r)
	}
	c.emit(EventEnd, r)
	c.kick()
}

// QueueLength returns the number of pending jobs.
func (c *Controller) QueueLength() int { return len(c.pending) }

// RunningCount returns the number of running jobs.
func (c *Controller) RunningCount() int { return len(c.running) }

// AppendRunningJobs appends the currently running job records to dst and
// returns it, in ID order so that float accumulation over the result is
// reproducible (the trace recorder sums attributed rates every sample).
func (c *Controller) AppendRunningJobs(dst []*JobRecord) []*JobRecord {
	return append(dst, c.running...)
}

// DoneCount returns the number of finished jobs.
func (c *Controller) DoneCount() int { return len(c.done) }

// Rounds returns how many scheduling rounds have run.
func (c *Controller) Rounds() uint64 { return c.rounds }

// Job returns a record by ID.
func (c *Controller) Job(id string) (*JobRecord, bool) {
	r, ok := c.byID[id]
	return r, ok
}

// DoneJobs returns finished job records in completion order.
func (c *Controller) DoneJobs() []*JobRecord {
	out := make([]*JobRecord, len(c.done))
	copy(out, c.done)
	return out
}

// Makespan returns the completion time of the last finished job.
func (c *Controller) Makespan() des.Time {
	var last des.Time
	for _, r := range c.done {
		if r.End > last {
			last = r.End
		}
	}
	return last
}

// Policy returns the active scheduling policy.
func (c *Controller) Policy() sched.Policy { return c.policy }

// Cluster returns the managed cluster.
func (c *Controller) Cluster() *cluster.Cluster { return c.cl }
