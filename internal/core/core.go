// Package core is the top-level API of the workload-adaptive I/O-aware
// scheduling library. It assembles the full prototype the paper describes
// (Fig. 2) — the Lustre file-system model, the compute cluster, LDMS
// monitoring, the SOS store, the analytical services, and the Slurm-like
// controller with a pluggable scheduling policy — behind one Config/System
// pair.
//
// A minimal session:
//
//	cfg := core.DefaultConfig()
//	cfg.Scheduler = core.SchedulerConfig{Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}
//	sys, err := core.NewSystem(cfg)
//	...
//	sys.MustSubmit(workload.WriteJob(8))
//	sys.Start()
//	err = sys.RunToCompletion(100 * des.Hour)
//	fmt.Println(sys.Makespan())
//
// Lower-level control (custom policies, direct tracker manipulation) stays
// available through the subsystem packages; core only wires them.
package core

import (
	"fmt"

	"wasched/internal/analytics"
	"wasched/internal/bb"
	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/sos"
	"wasched/internal/tbf"
	"wasched/internal/trace"
)

// SchedulerConfig selects and parameterises the scheduling policy.
type SchedulerConfig struct {
	// Policy names a registry policy (sched.PolicyNames, any case); empty
	// is "default". plan and bb-io-aware need Config.BB.CapacityBytes > 0,
	// tbf and tbf-straggler Config.TBF.CapacityBytesPerSec > 0.
	Policy string
	// ThroughputLimit is R_limit in bytes/s; required for io-aware,
	// adaptive, adaptive-naive and bb-io-aware.
	ThroughputLimit float64
	// QoSFraction tunes the two-group split (0 = the paper's 1/2).
	QoSFraction float64
	// BBAware wraps the selected policy in sched.BBAwarePolicy so its
	// backfill reservations also respect the burst-buffer pool (requires
	// Config.BB.CapacityBytes > 0). Ignored for plan and bb-io-aware,
	// which plan the pool already.
	BBAware bool
	// Custom overrides everything above with a caller-supplied policy.
	Custom sched.Policy
}

// Config assembles a full system.
type Config struct {
	// Nodes is the compute-node count (the paper's N = 15).
	Nodes int
	// Seed drives every stochastic component; a fixed seed reproduces a
	// run exactly.
	Seed      uint64
	Scheduler SchedulerConfig
	FS        pfs.Config
	Monitor   ldms.Config
	Analytics analytics.Config
	Control   slurm.Config
	// BB configures the burst-buffer tier; CapacityBytes = 0 (the
	// default) builds no tier and rejects BB-requesting jobs.
	BB bb.Config
	// TBF configures the client-side token-bucket bandwidth layer;
	// CapacityBytesPerSec = 0 (the default) builds no limiter. The layer
	// is execution-time control and composes with any policy, but the
	// tbf and tbf-straggler policies require it.
	TBF tbf.Config
	// TracePeriod is the run recorder's sampling period (0 = 5 s).
	TracePeriod des.Duration
}

// DefaultConfig mirrors the paper's testbed: 15 nodes, the calibrated
// Lustre model, 1 s monitoring, 30 s scheduling rounds with Slurm's
// default bf_max_job_test, and the default (node-only) policy.
func DefaultConfig() Config {
	scfg := slurm.DefaultConfig()
	scfg.Options.MaxJobTest = sched.SlurmDefaultTestLimit
	return Config{
		Nodes:       15,
		Seed:        1,
		FS:          pfs.DefaultConfig(),
		Monitor:     ldms.DefaultConfig(),
		Analytics:   analytics.DefaultConfig(),
		Control:     scfg,
		TracePeriod: 5 * des.Second,
	}
}

// policy materialises the configured scheduling policy and applies to c
// what the policy implies: its backfill depth, and straggler-aware token
// ordering for tbf-straggler.
func (c *Config) policy() (sched.Policy, error) {
	p := c.Scheduler.Custom
	wrapBB := false
	if p == nil {
		name := c.Scheduler.Policy
		if name == "" {
			name = "default"
		}
		spec, err := sched.LookupPolicy(name)
		if err == nil {
			p, err = spec.New(sched.PolicyParams{
				Nodes:       c.Nodes,
				Limit:       c.Scheduler.ThroughputLimit,
				BBCapacity:  c.BB.CapacityBytes,
				QoSFraction: c.Scheduler.QoSFraction,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if spec.BackfillMax != 0 {
			c.Control.Options.BackfillMax = spec.BackfillMax
		}
		_, plan := p.(sched.PlanPolicy)
		_, bbAware := p.(sched.BBAwarePolicy)
		if (plan || bbAware || c.Scheduler.BBAware) && c.BB.CapacityBytes <= 0 {
			return nil, fmt.Errorf("core: %s policy with BBAware=%t plans a burst-buffer pool and needs a positive BB.CapacityBytes", name, c.Scheduler.BBAware)
		}
		if _, ok := p.(sched.TBFPolicy); ok && c.TBF.CapacityBytesPerSec <= 0 {
			return nil, fmt.Errorf("core: %s policy needs a positive TBF.CapacityBytesPerSec", name)
		}
		wrapBB = c.Scheduler.BBAware && !plan && !bbAware
	}
	if tp, ok := p.(sched.TBFPolicy); ok && tp.Straggler {
		c.TBF.Straggler = true
	}
	if wrapBB {
		p = sched.BBAwarePolicy{Inner: p, Capacity: c.BB.CapacityBytes}
	}
	return p, nil
}

// System is a fully wired scheduling system on its own simulated timeline.
type System struct {
	Eng        *des.Engine
	FS         *pfs.FileSystem
	Cluster    *cluster.Cluster
	Store      *sos.Store
	Monitor    *ldms.Daemon
	Analytics  *analytics.Service
	Controller *slurm.Controller
	Recorder   *trace.Recorder
	// BB is the burst-buffer tier; nil when Config.BB.CapacityBytes = 0.
	BB *bb.Tier
	// TBF is the token-bucket bandwidth limiter; nil when
	// Config.TBF.CapacityBytesPerSec = 0.
	TBF *tbf.Limiter

	cfg       Config
	submitted int
}

// NewSystem wires a system from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: node count must be positive, got %d", cfg.Nodes)
	}
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	eng := des.NewEngine()
	fs, err := pfs.New(eng, cfg.FS, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(eng, fs, cfg.Nodes, "node", cfg.Seed)
	if err != nil {
		return nil, err
	}
	store := sos.NewStore()
	daemon, err := ldms.Start(eng, fs, store, cl.NodeNames(), cfg.Monitor, cfg.Seed)
	if err != nil {
		return nil, err
	}
	svc, err := analytics.New(eng, store, cl.NodeNames(), cfg.Analytics)
	if err != nil {
		return nil, err
	}
	ctl, err := slurm.New(eng, cl, policy, svc, cfg.Control)
	if err != nil {
		return nil, err
	}
	var tier *bb.Tier
	if cfg.BB.CapacityBytes > 0 {
		tier, err = bb.New(eng, fs, cfg.BB)
		if err != nil {
			return nil, err
		}
		ctl.AttachBB(tier)
	}
	var lim *tbf.Limiter
	if cfg.TBF.CapacityBytesPerSec > 0 {
		lim, err = tbf.New(eng, fs, cfg.TBF)
		if err != nil {
			return nil, err
		}
		ctl.AttachTBF(lim)
	}
	period := cfg.TracePeriod
	if period <= 0 {
		period = 5 * des.Second
	}
	rec := trace.NewRecorder(eng, fs, cl, ctl, period)
	if tier != nil {
		rec.SetBB(tier)
	}
	if lim != nil {
		rec.SetTBF(lim)
	}
	return &System{
		Eng:        eng,
		FS:         fs,
		Cluster:    cl,
		Store:      store,
		Monitor:    daemon,
		Analytics:  svc,
		Controller: ctl,
		Recorder:   rec,
		BB:         tier,
		TBF:        lim,
		cfg:        cfg,
	}, nil
}

// Config returns the configuration the system was built from.
func (s *System) Config() Config { return s.cfg }

// Submit enqueues a job now.
func (s *System) Submit(spec slurm.JobSpec) (*slurm.JobRecord, error) {
	r, err := s.Controller.Submit(spec)
	if err == nil {
		s.submitted++
	}
	return r, err
}

// MustSubmit submits or panics; convenient in examples and experiments
// where specs are statically valid.
func (s *System) MustSubmit(spec slurm.JobSpec) *slurm.JobRecord {
	r, err := s.Submit(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// SubmitAt schedules a future submission (arrival processes).
func (s *System) SubmitAt(spec slurm.JobSpec, at des.Time) error {
	if err := s.Controller.SubmitAt(spec, at); err != nil {
		return err
	}
	s.submitted++
	return nil
}

// SubmitAll submits specs in order at the current time.
func (s *System) SubmitAll(specs []slurm.JobSpec) error {
	for i, spec := range specs {
		if _, err := s.Submit(spec); err != nil {
			return fmt.Errorf("core: submit %d (%s): %w", i, spec.Name, err)
		}
	}
	return nil
}

// Start begins scheduling. Call once after the initial submissions.
func (s *System) Start() { s.Controller.Run() }

// RunToCompletion advances the simulation until every submitted job has
// finished, failing if that takes longer than max simulated time.
func (s *System) RunToCompletion(max des.Duration) error {
	deadline := s.Eng.Now().Add(max)
	for s.Controller.DoneCount() < s.submitted {
		if s.Eng.Now() >= deadline {
			return fmt.Errorf("core: %d of %d jobs unfinished after %v (queue=%d running=%d)",
				s.submitted-s.Controller.DoneCount(), s.submitted, max,
				s.Controller.QueueLength(), s.Controller.RunningCount())
		}
		if !s.Eng.Step() {
			return fmt.Errorf("core: simulation went idle with %d of %d jobs unfinished",
				s.submitted-s.Controller.DoneCount(), s.submitted)
		}
	}
	return nil
}

// Makespan returns the completion time of the last finished job.
func (s *System) Makespan() des.Time { return s.Controller.Makespan() }

// Pretrain seeds the estimator for one job class (paper "pre-training").
func (s *System) Pretrain(fingerprint string, rate float64, runtime des.Duration) {
	s.Analytics.Pretrain(fingerprint, rate, runtime)
}

// PretrainIsolated reproduces the paper's pre-training protocol: every
// distinct job class in specs runs once, alone, on a scratch copy of this
// system, and the measured rate and runtime seed this system's estimator.
func (s *System) PretrainIsolated(specs []slurm.JobSpec) error {
	byFP := make(map[string]slurm.JobSpec)
	var order []string
	for _, spec := range specs {
		fp := spec.Fingerprint
		if fp == "" {
			fp = spec.Name
		}
		if _, ok := byFP[fp]; !ok {
			byFP[fp] = spec
			order = append(order, fp)
		}
	}
	for _, fp := range order {
		est, err := s.measureIsolated(byFP[fp])
		if err != nil {
			return fmt.Errorf("core: pretrain %s: %w", fp, err)
		}
		s.Analytics.Pretrain(fp, est.Rate, est.Runtime)
	}
	return nil
}

func (s *System) measureIsolated(spec slurm.JobSpec) (analytics.Estimate, error) {
	cfg := DefaultConfig()
	cfg.Nodes = s.cfg.Nodes
	cfg.FS = s.cfg.FS
	cfg.BB = s.cfg.BB   // BB-requesting specs need a tier on the scratch system too
	cfg.TBF = s.cfg.TBF // measure under the same throttling regime the real run sees
	// An independent timeline per system seed.
	cfg.Seed = s.cfg.Seed ^ 0x9E3779B97F4A7C15
	cfg.TracePeriod = des.Second
	scratch, err := NewSystem(cfg)
	if err != nil {
		return analytics.Estimate{}, err
	}
	rec, err := scratch.Submit(spec)
	if err != nil {
		return analytics.Estimate{}, err
	}
	scratch.Start()
	if err := scratch.RunToCompletion(des.Duration(spec.Limit) + des.Hour); err != nil {
		return analytics.Estimate{}, err
	}
	if rec.State != slurm.StateCompleted && rec.State != slurm.StateTimeout {
		return analytics.Estimate{}, fmt.Errorf("isolated run ended in state %v", rec.State)
	}
	fp := spec.Fingerprint
	if fp == "" {
		fp = spec.Name
	}
	est, ok := scratch.Analytics.Estimate(fp)
	if !ok {
		return analytics.Estimate{}, fmt.Errorf("no estimate after isolated run")
	}
	return est, nil
}
