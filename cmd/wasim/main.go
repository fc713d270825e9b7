// Command wasim runs a scheduling simulation over a workload trace file.
//
// Usage:
//
//	wasim -file workload.txt [-conf slurm.conf]
//	      [-policy NAME]
//	      [-limit GIBPS] [-nodes N] [-seed N] [-pretrain]
//	      [-bb-capacity-gib G] [-bb-aware]
//	      [-tbf-capacity-gib G] [-tbf-burst-s S] [-tbf-servers N]
//	      [-csv series.csv] [-jobs-csv jobs.csv] [-plot]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -policy names one of the policy registry's entries (sched.PolicyNames;
// `wasim -h` lists them), in any case.
//
// With -bb-capacity-gib, a shared burst-buffer tier of that size is
// attached: jobs declaring a reservation (the workload format's `bb <gib>`
// token) stage in before compute and drain dirty data through the shared
// PFS after. `-policy plan` co-schedules compute nodes and BB space;
// -bb-aware instead keeps the chosen policy and adds BB admission
// awareness to its backfill.
//
// With -tbf-capacity-gib, the client-side token-bucket bandwidth layer is
// attached: every running job holds a bucket filled at its fair share of
// the capacity and the PFS enforces the per-node rate caps. `-policy tbf`
// and `-policy tbf-straggler` require it (or default it to 10 GiB/s), but
// the layer composes with any policy.
//
// With -conf, the slurm.conf-style file (see internal/slurmconf) provides
// the base configuration; explicit flags override it.
//
// It builds the full prototype (file-system model, cluster, LDMS
// monitoring, analytics, controller), schedules the trace under the chosen
// policy, and reports the makespan plus optional CSV exports and ASCII
// plots of the throughput and node-allocation series.
//
// -cpuprofile and -memprofile write Go pprof CPU and allocation profiles
// of the whole run (pre-training included) for `go tool pprof`, e.g.
//
//	wagen -workload w2 -out w2.txt
//	wasim -file w2.txt -policy tbf-straggler -pretrain -cpuprofile w2.cpu
//	go tool pprof -top w2.cpu
//
// Profiling only observes the process; every simulated output stays the
// same with or without it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/profiling"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/slurmconf"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wasim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	file := flag.String("file", "", "workload trace file (required)")
	confPath := flag.String("conf", "", "slurm.conf-style configuration file")
	policyName := flag.String("policy", "default", "scheduling policy: "+strings.Join(sched.PolicyNames(), ", "))
	limit := flag.Float64("limit", 20, "throughput limit in GiB/s for io-aware/adaptive")
	nodes := flag.Int("nodes", 15, "compute node count")
	bbCapGiB := flag.Float64("bb-capacity-gib", 0, "shared burst-buffer pool, GiB (0 = no BB tier)")
	bbAware := flag.Bool("bb-aware", false, "wrap the policy with BB admission awareness (needs -bb-capacity-gib)")
	tbfCapGiB := flag.Float64("tbf-capacity-gib", 0, "token-bucket aggregate fill rate, GiB/s (0 = auto for tbf policies, off otherwise)")
	tbfBurst := flag.Float64("tbf-burst-s", 0, "token-bucket burst depth, seconds of fill (0 = default 60)")
	tbfServers := flag.Int("tbf-servers", 0, "token-layer server count for straggler health (0 = from the PFS config)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	pretrain := flag.Bool("pretrain", false, "pre-train the estimator on isolated runs")
	csvOut := flag.String("csv", "", "write sampled series CSV to this file")
	jobsOut := flag.String("jobs-csv", "", "write per-job records CSV to this file")
	sacctOut := flag.String("sacct", "", "write an sacct-style accounting table to this file")
	htmlOut := flag.String("html", "", "write an HTML report with SVG charts to this file")
	sosOut := flag.String("sos", "", "dump the SOS metric store (gob) to this file")
	plot := flag.Bool("plot", false, "print ASCII plots of the run")
	gantt := flag.Bool("gantt", false, "print an ASCII node-occupancy Gantt chart")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	jobs, err := workload.Decode(f)
	//waschedlint:allow checkederr the workload file is opened read-only; close cannot lose data
	f.Close()
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("workload file %s has no jobs", *file)
	}

	cfg := core.DefaultConfig()
	scfg := cfg.Control
	scfg.Options.MaxJobTest = sched.SlurmDefaultTestLimit
	cfg.Control = scfg
	if *confPath != "" {
		f, err := os.Open(*confPath)
		if err != nil {
			return err
		}
		cfg, err = slurmconf.Parse(f)
		//waschedlint:allow checkederr the slurm.conf file is opened read-only; close cannot lose data
		f.Close()
		if err != nil {
			return err
		}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["nodes"] || *confPath == "" {
		cfg.Nodes = *nodes
	}
	if explicit["seed"] || *confPath == "" {
		cfg.Seed = *seed
	}
	if explicit["policy"] || *confPath == "" {
		cfg.Scheduler.Policy = *policyName
	}
	if explicit["limit"] || cfg.Scheduler.ThroughputLimit == 0 {
		cfg.Scheduler.ThroughputLimit = *limit * pfs.GiB
	}
	if *bbCapGiB > 0 {
		cfg.BB.CapacityBytes = *bbCapGiB * pfs.GiB
	}
	if *bbAware {
		cfg.Scheduler.BBAware = true
	}
	// The tbf policies need a token pool; default it so `-policy tbf`
	// works out of the box. An explicit capacity attaches the layer under
	// any policy.
	if *tbfCapGiB <= 0 && cfg.TBF.CapacityBytesPerSec == 0 && tokenPolicy(cfg.Scheduler.Policy) {
		*tbfCapGiB = 10
	}
	if *tbfCapGiB > 0 {
		cfg.TBF.CapacityBytesPerSec = *tbfCapGiB * pfs.GiB
		cfg.TBF.BurstSeconds = *tbfBurst
		cfg.TBF.Servers = *tbfServers
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	if *pretrain {
		specs := make([]slurm.JobSpec, len(jobs))
		for i, tj := range jobs {
			specs[i] = tj.Spec
		}
		if err := sys.PretrainIsolated(specs); err != nil {
			return err
		}
	}
	for i, tj := range jobs {
		if err := sys.SubmitAt(tj.Spec, tj.At); err != nil {
			return fmt.Errorf("submit %d (%s): %w", i, tj.Spec.Name, err)
		}
	}
	sys.Start()
	if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
		return err
	}

	fmt.Printf("policy=%s jobs=%d makespan=%.0fs rounds=%d\n",
		sys.Controller.Policy().Name(), sys.Controller.DoneCount(),
		sys.Controller.Makespan().Seconds(), sys.Controller.Rounds())
	if *plot {
		fmt.Print(trace.Plot(&sys.Recorder.Throughput, 100, 8))
		fmt.Print(trace.Plot(&sys.Recorder.BusyNodes, 100, 5))
	}
	if *gantt {
		fmt.Print(trace.Gantt(sys.Recorder.Jobs(), 100))
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, sys.Recorder.WriteCSV); err != nil {
			return err
		}
	}
	if *jobsOut != "" {
		if err := writeFile(*jobsOut, sys.Recorder.WriteJobsCSV); err != nil {
			return err
		}
	}
	if *sacctOut != "" {
		if err := writeFile(*sacctOut, sys.Controller.WriteAccounting); err != nil {
			return err
		}
	}
	if *htmlOut != "" {
		title := fmt.Sprintf("wasim: %s under %s", *file, sys.Controller.Policy().Name())
		if err := writeFile(*htmlOut, func(w io.Writer) error {
			return sys.Recorder.WriteHTML(w, title)
		}); err != nil {
			return err
		}
	}
	if *sosOut != "" {
		if err := writeFile(*sosOut, sys.Store.Save); err != nil {
			return err
		}
	}
	return nil
}

// tokenPolicy reports whether the named policy runs under the token layer.
func tokenPolicy(name string) bool {
	p, err := sched.NewPolicy(name, sched.PolicyParams{})
	if err != nil {
		return false // no token policy needs a limit; NewSystem reports bad names
	}
	_, ok := p.(sched.TBFPolicy)
	return ok
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		//waschedlint:allow checkederr the write error takes precedence; the file is already known-bad
		f.Close()
		return err
	}
	return f.Close()
}
