// Package experiments assembles the full prototype — file system model,
// cluster, monitoring, analytics, controller, policy — and regenerates
// every figure of the paper's evaluation (Figs. 3–6) plus the ablations
// called out in DESIGN.md.
//
// All experiments share one calibration (DESIGN.md §6): the pfs defaults
// model the paper's 56-volume SSD Lustre, and the cluster has 15 compute
// nodes, matching the paper's testbed.
package experiments

import (
	"fmt"

	"wasched/internal/analytics"
	"wasched/internal/bb"
	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
	"wasched/internal/stats"
	"wasched/internal/tbf"
	"wasched/internal/trace"
)

// Nodes is the paper's compute-node count (15 of Stria's 16 allocated
// nodes; the 16th ran the control plane, which needs no node here).
const Nodes = 15

// Limits used throughout the paper's evaluation.
const (
	Limit20 = 20 * pfs.GiB // GiB/s, the measured short-term bandwidth
	Limit15 = 15 * pfs.GiB // GiB/s, the estimated long-term bandwidth
)

// Options configure a system build.
type Options struct {
	Nodes        int
	Seed         uint64
	Policy       sched.Policy
	PFS          pfs.Config
	LDMS         ldms.Config
	Analytics    analytics.Config
	Slurm        slurm.Config
	SamplePeriod des.Duration // trace recorder period
	// BB, when CapacityBytes is set, attaches a burst-buffer tier to the
	// controller (stage-in before start, drain after end, both through
	// the shared PFS).
	BB bb.Config
	// TBF, when CapacityBytesPerSec is set, attaches the client-side
	// token-bucket bandwidth layer: every running job gets a bucket
	// filled at its fair share of the capacity, and the PFS enforces the
	// resulting per-node rate caps.
	TBF tbf.Config
}

// DefaultOptions returns the shared experimental setup: 15 nodes, the
// calibrated file system, 1 s monitoring, 30 s scheduling rounds with
// Slurm's default bf_max_job_test of 100, and 5 s trace sampling.
func DefaultOptions(policy sched.Policy, seed uint64) Options {
	scfg := slurm.DefaultConfig()
	scfg.Options.MaxJobTest = sched.SlurmDefaultTestLimit
	return Options{
		Nodes:        Nodes,
		Seed:         seed,
		Policy:       policy,
		PFS:          pfs.DefaultConfig(),
		LDMS:         ldms.DefaultConfig(),
		Analytics:    analytics.DefaultConfig(),
		Slurm:        scfg,
		SamplePeriod: 5 * des.Second,
	}
}

// System is a fully wired prototype instance (see core.System).
type System = core.System

// Build wires a system from options via the core library.
func Build(opts Options) (*System, error) {
	if opts.Policy == nil {
		return nil, fmt.Errorf("experiments: nil policy")
	}
	cfg := core.Config{
		Nodes:       opts.Nodes,
		Seed:        opts.Seed,
		Scheduler:   core.SchedulerConfig{Custom: opts.Policy},
		FS:          opts.PFS,
		Monitor:     opts.LDMS,
		Analytics:   opts.Analytics,
		Control:     opts.Slurm,
		TracePeriod: opts.SamplePeriod,
		BB:          opts.BB,
		TBF:         opts.TBF,
	}
	return core.NewSystem(cfg)
}

// Pretrain reproduces the paper's pre-training stage: each distinct job
// class of the workload runs once in isolation on a scratch system, and
// the measured rate and runtime seed the main system's estimator.
func Pretrain(sys *System, specs []slurm.JobSpec) error {
	return sys.PretrainIsolated(specs)
}

// RunResult summarises one scheduling run.
type RunResult struct {
	Label      string
	Policy     string
	Makespan   float64 // seconds
	MedianWait float64 // seconds
	Jobs       int
	Timeouts   int
	Recorder   *trace.Recorder
	// MeanBusyNodes is the time-averaged allocated node count over the
	// makespan — the node-allocation panel of Figs. 3/5 in one number.
	MeanBusyNodes float64
	// MeanThroughput is the time-averaged Lustre throughput in GiB/s.
	MeanThroughput float64
	// IdleNodeSeconds integrates (N - busy) over the makespan.
	IdleNodeSeconds float64
	// Sched holds the standard scheduling quality metrics (mean/P95 wait,
	// mean and bounded slowdown) over the finished jobs.
	Sched trace.Metrics
	// Invariants is the schedule validation of the run (internal/schedcheck):
	// every experiment doubles as an invariant check. RunWorkload fails on
	// violations; direct summarize callers can inspect it.
	Invariants schedcheck.Result
}

// MeanClassRuntime returns the mean runtime in seconds of finished jobs
// whose name matches class (0 when none finished). It quantifies
// congestion exposure: a write job's runtime inflates with file-system
// contention.
func (r *RunResult) MeanClassRuntime(class string) float64 {
	sum, n := 0.0, 0
	for _, j := range r.Recorder.Jobs() {
		if j.Name == class {
			sum += j.Runtime()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanClassWait returns the mean queue wait in seconds of finished jobs
// whose name matches class (0 when none finished) — the starvation metric
// of the BackfillMax ablation.
func (r *RunResult) MeanClassWait(class string) float64 {
	sum, n := 0.0, 0
	for _, j := range r.Recorder.Jobs() {
		if j.Name == class {
			sum += j.Wait()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunWorkload executes a full experiment: optionally pre-train, submit the
// workload as one batch at t=0, and run the simulation until the queue
// drains. maxSim caps the simulated time as a safety net (0 = 1000 h).
func RunWorkload(opts Options, specs []slurm.JobSpec, pretrain bool, label string) (*RunResult, error) {
	sys, err := Build(opts)
	if err != nil {
		return nil, err
	}
	if pretrain {
		if err := Pretrain(sys, specs); err != nil {
			return nil, err
		}
	}
	if err := sys.SubmitAll(specs); err != nil {
		return nil, err
	}
	sys.Start()
	if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", label, err)
	}
	res := summarize(sys, label)
	if err := res.Invariants.Err(); err != nil {
		return res, fmt.Errorf("experiments: %s: %w", label, err)
	}
	return res, nil
}

func summarize(sys *System, label string) *RunResult {
	makespan := sys.Controller.Makespan().Seconds()
	waits := make([]float64, 0, sys.Controller.DoneCount())
	timeouts := 0
	for _, j := range sys.Controller.DoneJobs() {
		waits = append(waits, j.WaitTime().Seconds())
		if j.State == slurm.StateTimeout {
			timeouts++
		}
	}
	meanBusy := sys.Recorder.BusyNodes.MeanOver(0, makespan)
	res := &RunResult{
		Label:          label,
		Policy:         sys.Controller.Policy().Name(),
		Makespan:       makespan,
		MedianWait:     stats.Median(waits),
		Jobs:           sys.Controller.DoneCount(),
		Timeouts:       timeouts,
		Recorder:       sys.Recorder,
		MeanBusyNodes:  meanBusy,
		MeanThroughput: sys.Recorder.Throughput.MeanOver(0, makespan),
	}
	res.IdleNodeSeconds = (float64(sys.Cluster.Size()) - meanBusy) * makespan
	res.Sched = trace.ComputeMetrics(sys.Recorder.Jobs())
	// Every run is invariant-checked, order check included: the
	// FIFO-within-class sweep is requeue-aware (per-attempt trace records
	// carry their own eligible times), so preemption runs are validated
	// rather than skipped.
	vopts := schedcheck.ValidateOptions{
		Nodes:           sys.Cluster.Size(),
		ThroughputLimit: sched.ThroughputLimit(sys.Controller.Policy()),
	}
	if sys.BB != nil {
		vopts.BBCapacity = sys.BB.Capacity()
	}
	if sys.TBF != nil {
		vopts.TBF = true
	}
	res.Invariants = schedcheck.ValidateRun(sys.Recorder, vopts)
	if sys.BB != nil {
		// The tier's ledger is the ground truth for stage/drain timing; the
		// trace-level sweep sees only what the recorder attributed to jobs.
		res.Invariants.Merge(schedcheck.ValidateBB(sys.BB.Ledger(), sys.BB.Capacity()))
	}
	if sys.TBF != nil {
		// Same split as BB: the limiter's ledger is the token ground truth,
		// the trace sweep checks what the recorder attributed per job.
		res.Invariants.Merge(schedcheck.ValidateTBF(sys.TBF.Ledger()))
	}
	return res
}
