// The `wasched replay` subcommand: stream a Standard Workload Format
// trace (Parallel Workloads Archive, optionally gzipped) through the
// lightweight round-based replayer and report scheduling throughput per
// policy. This is the archive-scale path — a 10⁵–10⁶ job trace replays in
// minutes because the replayer runs on incremental scheduling state
// (sched.Session) instead of the full prototype's file-system model.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/workload"
)

// replayPolicies builds the named policy set for a replay. bbCap is the
// burst-buffer pool the BB-aware policies plan against (0 with BB off).
func replayPolicies(name string, nodes int, limit, bbCap float64) ([]sched.Policy, []float64, error) {
	mk := func(label string) (sched.Policy, float64, error) {
		switch label {
		case "tbf":
			return sched.TBFPolicy{TotalNodes: nodes}, 0, nil
		case "tbf-straggler":
			return sched.TBFPolicy{TotalNodes: nodes, Straggler: true}, 0, nil
		case "default":
			return sched.NodePolicy{TotalNodes: nodes}, 0, nil
		case "io-aware":
			return sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, limit, nil
		case "adaptive":
			return sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}, limit, nil
		case "adaptive-naive":
			return sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false}, limit, nil
		case "plan":
			return sched.PlanPolicy{TotalNodes: nodes, BBCapacity: bbCap, ThroughputLimit: limit}, limit, nil
		case "bb-io-aware":
			return sched.BBAwarePolicy{
				Inner:    sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit},
				Capacity: bbCap,
			}, limit, nil
		default:
			return nil, 0, fmt.Errorf("unknown policy %q (want default, io-aware, adaptive, adaptive-naive, plan, bb-io-aware, tbf, tbf-straggler or all)", label)
		}
	}
	labels := []string{name}
	if name == "all" {
		labels = []string{"default", "io-aware", "adaptive", "adaptive-naive"}
	}
	policies := make([]sched.Policy, 0, len(labels))
	limits := make([]float64, 0, len(labels))
	for _, l := range labels {
		p, lim, err := mk(l)
		if err != nil {
			return nil, nil, err
		}
		policies = append(policies, p)
		limits = append(limits, lim)
	}
	return policies, limits, nil
}

// runReplay implements `wasched replay <trace.swf[.gz]> [flags]`.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	policy := fs.String("policy", "all", "policy: default, io-aware, adaptive, adaptive-naive, plan, bb-io-aware, tbf, tbf-straggler or all")
	nodes := fs.Int("nodes", 15, "cluster size (the paper's Stria partition)")
	coresPerNode := fs.Int("cores-per-node", 56, "cores per node for SWF processor→node conversion")
	limitGiB := fs.Float64("limit-gib", 20, "policy throughput limit R_limit, GiB/s")
	interval := fs.Float64("interval", 30, "scheduling round period, seconds")
	maxJobs := fs.Int("max-jobs", 0, "truncate the trace (0 = all jobs)")
	ioFraction := fs.Float64("io-fraction", 0.4, "fraction of jobs given synthetic I/O")
	seed := fs.Uint64("seed", 1, "seed for the deterministic I/O assignment")
	bbCapGiB := fs.Float64("bb-capacity-gib", 0, "shared burst-buffer pool, GiB (0 = BB off)")
	bbFraction := fs.Float64("bb-fraction", 0, "fraction of jobs given a synthetic BB reservation")
	bbPerNode := fs.Float64("bb-gib-per-node", 4, "BB reservation per node for assigned jobs, GiB")
	bbStage := fs.Float64("bb-stage-gibps", 2, "BB stage-in rate, GiB/s (0 = instant)")
	bbDrain := fs.Float64("bb-drain-gibps", 1, "BB stage-out drain rate, GiB/s (0 = instant)")
	tbfCapGiB := fs.Float64("tbf-capacity-gib", 0, "token-bucket aggregate fill rate, GiB/s (0 = auto for tbf policies, off otherwise)")
	tbfBurst := fs.Float64("tbf-burst-s", 0, "token-bucket burst depth, seconds of fill (0 = default 60)")
	tbfServers := fs.Int("tbf-servers", 0, "token-layer server count for straggler health (0 = default 8)")
	maxRounds := fs.Int("max-rounds", 0, "round budget (0 = sized from the trace span)")
	checks := fs.Bool("checks", false, "run the per-round invariant checks (slower)")
	quiet := fs.Bool("quiet", false, "suppress live progress on stderr")
	// Accept flags before or after the trace path, like `wasched run`.
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: wasched replay <trace.swf[.gz]> [-policy P] [-nodes N] [-limit-gib G] ...")
	}
	path := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: wasched replay <trace.swf[.gz]> [-policy P] [-nodes N] [-limit-gib G] ...")
	}

	if *bbFraction > 0 && *bbCapGiB <= 0 {
		return fmt.Errorf("-bb-fraction needs -bb-capacity-gib: jobs with BB demand can never start against an absent pool")
	}
	// The tbf policies need a token pool; default it to the corpus fill
	// capacity so `-policy tbf` works out of the box on any trace.
	if (*policy == "tbf" || *policy == "tbf-straggler") && *tbfCapGiB <= 0 {
		*tbfCapGiB = schedcheck.CorpusTBFCapacity / pfs.GiB
	}
	opts := workload.DefaultSWFOptions()
	opts.CoresPerNode = *coresPerNode
	opts.MaxNodes = *nodes
	opts.IOFraction = *ioFraction
	opts.MaxJobs = *maxJobs
	opts.Seed = *seed
	if *bbFraction > 0 {
		opts.BBFraction = *bbFraction
		opts.BBGiBPerNode = *bbPerNode
	}
	limit := *limitGiB * pfs.GiB
	bbCap := *bbCapGiB * pfs.GiB

	f, err := workload.OpenSWF(path)
	if err != nil {
		return err
	}
	//waschedlint:allow checkederr the trace is opened read-only; close cannot lose data
	defer f.Close()
	loadStart := time.Now()
	jobs, quirks, err := schedcheck.LoadSWFSimJobs(f, opts)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("%s: no usable jobs (quirks: %s)", path, quirks)
	}
	fmt.Printf("loaded %s: %d jobs in %.2fs (quirks: %s)\n",
		path, len(jobs), time.Since(loadStart).Seconds(), quirks)

	policies, limits, err := replayPolicies(*policy, *nodes, limit, bbCap)
	if err != nil {
		return err
	}
	for i, p := range policies {
		cfg := schedcheck.ReplayConfig{
			Policy:          p,
			Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
			Interval:        des.FromSeconds(*interval),
			Nodes:           *nodes,
			Limit:           limits[i],
			MaxRounds:       *maxRounds,
			SkipRoundChecks: !*checks,
		}
		if bbCap > 0 {
			cfg.BBCapacity = bbCap
			cfg.BBStageRate = *bbStage * pfs.GiB
			cfg.BBDrainRate = *bbDrain * pfs.GiB
		}
		if *tbfCapGiB > 0 {
			cfg.TBFCapacity = *tbfCapGiB * pfs.GiB
			cfg.TBFBurst = des.FromSeconds(*tbfBurst)
			if cfg.TBFServers = *tbfServers; cfg.TBFServers <= 0 {
				cfg.TBFServers = schedcheck.CorpusTBFServers
			}
			if tp, ok := p.(sched.TBFPolicy); ok {
				cfg.TBFStraggler = tp.Straggler
			}
		}
		if cfg.MaxRounds == 0 {
			cfg.MaxRounds = replayRoundBudget(jobs, cfg.Interval)
		}
		if !*quiet {
			last := time.Now()
			cfg.Progress = func(done int, now des.Time) {
				if time.Since(last) < 2*time.Second {
					return
				}
				last = time.Now()
				fmt.Fprintf(os.Stderr, "  %-16s %8d/%d jobs  t=%.0fh\r",
					p.Name(), done, len(jobs), now.Seconds()/3600)
			}
		}
		wall := time.Now()
		res := schedcheck.Replay(jobs, cfg)
		elapsed := time.Since(wall).Seconds()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%60s\r", "")
		}
		fmt.Printf("%-16s %8d jobs  %9d rounds  %9d scheduled  makespan %8.1fh  %6.2fs wall  %9.0f jobs/s  %9.0f rounds/s\n",
			res.Policy, len(res.Jobs), res.Rounds, res.Scheduled, res.Makespan.Seconds()/3600,
			elapsed, float64(len(res.Jobs))/elapsed, float64(res.Rounds)/elapsed)
		if n := len(res.Check.Violations); n > 0 {
			for _, v := range res.Check.Violations {
				fmt.Printf("  violation %s: %s\n", v.Invariant, v.Detail)
			}
			return fmt.Errorf("%s: %d invariant violations", res.Policy, n)
		}
	}
	return nil
}

// replayRoundBudget sizes MaxRounds from the trace: the whole submit span
// plus generous drain time, so a healthy replay never trips the budget but
// a starved queue still terminates.
func replayRoundBudget(jobs []schedcheck.SimJob, interval des.Duration) int {
	var span des.Time
	for _, j := range jobs {
		if end := j.Submit.Add(j.Limit); end > span {
			span = end
		}
	}
	rounds := int(span/des.Time(interval)) + 1
	// Drain allowance: every job serialized after the last arrival.
	var tail des.Duration
	for _, j := range jobs {
		tail += j.Limit
	}
	rounds += int(tail/interval) + 1000
	return rounds
}
