package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"wasched/internal/des"
	"wasched/internal/experiments"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
	"wasched/internal/tbf"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

const gib = 1 << 30

// workloadDef is one named set of inputs. newInput makes the inputs from
// the seed; making them is not timed, because users bring their inputs.
type workloadDef struct {
	name     string
	newInput func(seed uint64) (input, error)
}

// input is a workload's generated inputs.
type input interface {
	// setup does what the program needs before it can run the workload
	// (timed as setup_s) and returns a fresh instance. Its phase durations
	// go into phases. With traced set, the instance times its policy.
	setup(traced bool, phases map[string]time.Duration) (instance, error)
}

// instance is one set-up run of a workload.
type instance interface {
	// run is the timed section.
	run() error
	// result reads the finished run: schedule, checks and counters.
	result() *outcome
}

// outcome is what one rep produced. Everything but spans is
// deterministic for a given seed.
type outcome struct {
	jobs, failed int
	problems     []string
	makespan     float64 // simulated seconds
	meanWait     float64 // simulated seconds
	digest       [sha256.Size]byte
	// spans are wall times of layer calls made during the rep.
	spans    map[string]time.Duration
	counters map[string]float64
}

// workloads are the benchmark's workloads; README.md says why each is here.
var workloads = []workloadDef{
	{"proto-w1-adaptive", func(seed uint64) (input, error) {
		policy := sched.AdaptivePolicy{TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit20, TwoGroup: true}
		return &protoInput{specs: workload.Workload1(), opts: experiments.DefaultOptions(policy, seed), limit: experiments.Limit20}, nil
	}},
	{"proto-w2-tbf", func(seed uint64) (input, error) {
		opts := experiments.DefaultOptions(sched.TBFPolicy{TotalNodes: experiments.Nodes, Straggler: true}, seed)
		opts.TBF = tbf.Config{CapacityBytesPerSec: 10 * gib, Straggler: true}
		return &protoInput{specs: workload.Workload2(), opts: opts}, nil // node-only: no R_limit
	}},
	{"replay-120k-adaptive", func(seed uint64) (input, error) {
		policy := sched.AdaptivePolicy{TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit20, TwoGroup: true}
		return newReplayInput(swfGen(120000, 0.7, seed), workload.DefaultSWFOptions(), replayConfig(policy, experiments.Limit20))
	}},
	{"replay-backlog-plan", func(seed uint64) (input, error) {
		opts := workload.DefaultSWFOptions()
		opts.BBFraction = 0.3
		opts.BBGiBPerNode = 4
		policy := sched.PlanPolicy{TotalNodes: experiments.Nodes, BBCapacity: 64 * gib, ThroughputLimit: experiments.Limit20}
		cfg := replayConfig(policy, experiments.Limit20)
		cfg.BBCapacity = 64 * gib
		cfg.BBStageRate = 2 * gib
		cfg.BBDrainRate = 1 * gib
		return newReplayInput(swfGen(40000, 0.9, seed), opts, cfg)
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// protoInput runs the full prototype (core.System) on a batch workload
// submitted at t=0, pre-trained, as experiments.RunWorkload does.
type protoInput struct {
	specs []slurm.JobSpec
	opts  experiments.Options
	// limit is the policy's R_limit for the validator (0: none).
	limit float64
}

func (in *protoInput) setup(traced bool, phases map[string]time.Duration) (instance, error) {
	p := &protoRun{in: in}
	opts := in.opts
	if traced {
		p.policy = &policyStats{}
		opts.Policy = wrapPolicy(opts.Policy, p.policy)
	}
	t0 := time.Now()
	sys, err := experiments.Build(opts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := experiments.Pretrain(sys, in.specs); err != nil {
		return nil, err
	}
	phases["core.build"] = t1.Sub(t0)
	phases["core.pretrain"] = time.Since(t1)
	p.sys = sys
	return p, nil
}

type protoRun struct {
	in      *protoInput
	sys     *experiments.System
	policy  *policyStats // nil unless traced
	runErr  error
	check   schedcheck.Result
	metrics trace.Metrics
	spans   map[string]time.Duration
}

func (p *protoRun) run() error {
	t0 := time.Now()
	if err := p.sys.SubmitAll(p.in.specs); err != nil {
		return err
	}
	p.sys.Start()
	// Jobs left unfinished count as failed; the rep itself goes on.
	p.runErr = p.sys.RunToCompletion(1000 * des.Hour)
	t1 := time.Now()
	p.check = schedcheck.ValidateRun(p.sys.Recorder, schedcheck.ValidateOptions{
		Nodes:           p.sys.Cluster.Size(),
		ThroughputLimit: p.in.limit,
		TBF:             p.sys.TBF != nil,
	})
	if p.sys.TBF != nil {
		p.check.Merge(schedcheck.ValidateTBF(p.sys.TBF.Ledger()))
	}
	t2 := time.Now()
	p.metrics = trace.ComputeMetrics(p.sys.Recorder.Jobs())
	p.spans = map[string]time.Duration{
		"sim.run":             t1.Sub(t0),
		"schedcheck.validate": t2.Sub(t1),
		"trace.metrics":       time.Since(t2),
	}
	return nil
}

func (p *protoRun) result() *outcome {
	sys := p.sys
	ctl := sys.Controller
	o := &outcome{
		jobs:     len(p.in.specs),
		makespan: ctl.Makespan().Seconds(),
		meanWait: p.metrics.MeanWait,
		digest:   digest(sys.Recorder.Jobs()),
		spans:    p.spans,
	}
	// A job killed at its time limit ran as scheduled: under token
	// throttling a few writers of Workload 2 outlast their limit at some
	// seeds. Jobs cancelled, lost with a node or never finished failed.
	served, timeouts := 0, 0
	for _, r := range ctl.DoneJobs() {
		switch r.State {
		case slurm.StateCompleted:
			served++
		case slurm.StateTimeout:
			served++
			timeouts++
		}
	}
	o.failed = o.jobs - served
	if p.runErr != nil {
		o.problems = append(o.problems, p.runErr.Error())
	}
	if err := p.check.Err(); err != nil {
		o.problems = append(o.problems, err.Error())
	}
	o.counters = map[string]float64{
		"ldms.samples":           float64(sys.Monitor.Samples()),
		"ldms.flushes":           float64(sys.Monitor.Flushes()),
		"sos.rows_retained":      float64(sys.Monitor.Container().Len()),
		"analytics.completed":    float64(sys.Analytics.CompletedJobs()),
		"slurm.rounds":           float64(ctl.Rounds()),
		"slurm.timeouts":         float64(timeouts),
		"slurm.starts_per_round": ratio(float64(ctl.DoneCount()), float64(ctl.Rounds())),
		"pfs.recomputes":         float64(sys.FS.Recomputes()),
		"des.events":             float64(sys.Eng.Fired()),
		"des.pool_slots":         float64(sys.Eng.PoolSize()),
	}
	if sys.TBF != nil {
		o.counters["tbf.ticks"] = float64(sys.TBF.Ticks())
	}
	if p.policy != nil {
		p.policy.addTo(o)
	}
	return o
}

// swfGen is the synthetic-trace shape of the replay workloads. At seed 42,
// 120,000 jobs and utilization 0.7 it is testdata/swf/synthetic-120k.swf.gz.
func swfGen(jobs int, util float64, seed uint64) workload.SWFGenConfig {
	return workload.SWFGenConfig{Jobs: jobs, Seed: seed, Nodes: experiments.Nodes, CoresPerNode: 56, Utilization: util, QuirkEvery: 5000}
}

// replayConfig is the replay set-up BENCH_replay.json measures: 30 s
// rounds, Slurm's default bf_max_job_test and no invariant checks in the
// timed section.
func replayConfig(policy sched.Policy, limit float64) schedcheck.ReplayConfig {
	return schedcheck.ReplayConfig{
		Policy:          policy,
		Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
		Interval:        30 * des.Second,
		Nodes:           experiments.Nodes,
		Limit:           limit,
		SkipRoundChecks: true,
	}
}

// replayInput replays a generated SWF trace through schedcheck.Replay.
type replayInput struct {
	swf  []byte
	opts workload.SWFOptions
	cfg  schedcheck.ReplayConfig
}

func newReplayInput(gen workload.SWFGenConfig, opts workload.SWFOptions, cfg schedcheck.ReplayConfig) (*replayInput, error) {
	var buf bytes.Buffer
	if err := workload.WriteSyntheticSWF(&buf, gen); err != nil {
		return nil, err
	}
	return &replayInput{swf: buf.Bytes(), opts: opts, cfg: cfg}, nil
}

func (in *replayInput) setup(_ bool, phases map[string]time.Duration) (instance, error) {
	t0 := time.Now()
	records, _, err := workload.ParseSWFRecords(bytes.NewReader(in.swf))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	jobs, _, err := schedcheck.SimJobsFromSWF(records, in.opts)
	if err != nil {
		return nil, err
	}
	phases["workload.parse"] = t1.Sub(t0)
	phases["schedcheck.convert"] = time.Since(t1)
	r := &replayRun{jobs: jobs, cfg: in.cfg}
	r.cfg.MaxRounds = roundBudget(jobs, r.cfg.Interval)
	r.cfg.Progress = func(int, des.Time) { r.useful++ }
	return r, nil
}

type replayRun struct {
	jobs   []schedcheck.SimJob
	cfg    schedcheck.ReplayConfig
	res    *schedcheck.ReplayResult
	simRun time.Duration
	useful int // rounds that completed a job
}

func (r *replayRun) run() error {
	t0 := time.Now()
	r.res = schedcheck.Replay(r.jobs, r.cfg)
	r.simRun = time.Since(t0)
	return nil
}

func (r *replayRun) result() *outcome {
	res := r.res
	t0 := time.Now()
	m := trace.ComputeMetrics(res.Jobs)
	t1 := time.Now()
	// The timed section skips the checks; the schedule is validated here.
	check := res.Check
	check.Merge(schedcheck.ValidateJobs(res.Jobs, schedcheck.ValidateOptions{Nodes: r.cfg.Nodes, BBCapacity: r.cfg.BBCapacity}))
	o := &outcome{
		jobs:     len(r.jobs),
		failed:   len(r.jobs) - len(res.Jobs),
		makespan: res.Makespan.Seconds(),
		meanWait: m.MeanWait,
		digest:   digest(res.Jobs),
		spans: map[string]time.Duration{
			"sim.run":             r.simRun,
			"trace.metrics":       t1.Sub(t0),
			"schedcheck.validate": time.Since(t1),
		},
		counters: map[string]float64{
			"replay.rounds":            float64(res.Rounds),
			"replay.useful_round_frac": ratio(float64(r.useful), float64(res.Rounds)),
		},
	}
	if err := check.Err(); err != nil {
		o.problems = append(o.problems, err.Error())
	}
	return o
}

// roundBudget bounds a replay so that a policy that starves jobs ends with
// them counted as failed instead of running on: every job's limit served
// one after another after the last arrival, plus slack.
func roundBudget(jobs []schedcheck.SimJob, interval des.Duration) int {
	var last des.Time
	var serial des.Duration
	for _, j := range jobs {
		last = max(last, j.Submit)
		serial += j.Limit
	}
	return int(des.Duration(last)/interval+serial/interval) + 1000
}

// digest fingerprints a schedule: every field of every job record, in
// completion order.
func digest(jobs []trace.JobTrace) [sha256.Size]byte {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%+v\n", j)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
