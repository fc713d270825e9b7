// Command wagen generates workload trace files in the wasched workload
// format (see internal/workload).
//
// Usage:
//
//	wagen -workload w1|w2|mixed|bursty [-poisson SECONDS] [-seed N] [-out FILE]
//	wagen -swf trace.swf [-io-fraction 0.4] [-max-jobs N] [-out FILE]
//	wagen -gen-swf N [-seed N] [-nodes 15] [-cores-per-node 56] [-quirk-every N] [-out FILE]
//
// By default all jobs are submitted at t=0 (the paper's batch protocol);
// -poisson spreads submissions with exponential inter-arrival gaps. With
// -swf, a Standard Workload Format trace (Parallel Workloads Archive) is
// converted instead, with synthetic I/O assigned to -io-fraction of jobs.
// With -gen-swf, a deterministic synthetic SWF trace is written instead —
// the archive traces cannot be redistributed, so `wasched replay` and the
// replay benchmark run on traces produced here (see testdata/swf). An
// -out name ending in ".gz" is written gzip-compressed.
//
// -bb-fraction (default 0: off) gives that fraction of job classes a
// synthetic burst-buffer reservation of nodes × -bb-gib-per-node GiB, so
// generated traces can exercise the burst-buffer tier (`wasim
// -bb-capacity-gib`, `wasched replay -bb-capacity-gib`).
//
// -cpuprofile and -memprofile write pprof profiles of the run
// (internal/profiling).
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wasched/internal/des"
	"wasched/internal/profiling"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

// encodeTo streams the encoded trace to path (or stdout when path is
// empty), surfacing close errors on the written file — a failed close can
// mean the trace never fully reached disk.
func encodeTo(path string, encode func(w io.Writer) error) error {
	if path == "" {
		return encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encode(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wagen:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	name := flag.String("workload", "w1", "workload: w1, w2, mixed, bursty or ckpt")
	poisson := flag.Float64("poisson", 0, "mean inter-arrival seconds (0 = batch at t=0)")
	seed := flag.Uint64("seed", 1, "seed for the arrival process")
	out := flag.String("out", "", "output file (default stdout)")
	swf := flag.String("swf", "", "convert a Standard Workload Format trace instead")
	ioFraction := flag.Float64("io-fraction", 0.4, "fraction of SWF jobs given synthetic I/O")
	maxJobs := flag.Int("max-jobs", 0, "truncate the SWF trace (0 = all)")
	genSWF := flag.Int("gen-swf", 0, "write a synthetic SWF trace with this many jobs instead")
	genNodes := flag.Int("nodes", 15, "cluster size the synthetic trace's arrival rate is matched to")
	genCores := flag.Int("cores-per-node", 56, "cores per node for synthetic SWF processor counts")
	genUtil := flag.Float64("utilization", 0.7, "offered load of the synthetic trace as a fraction of capacity")
	quirkEvery := flag.Int("quirk-every", 0, "inject one malformed SWF row every N jobs (0 = clean trace)")
	bbFraction := flag.Float64("bb-fraction", 0, "fraction of jobs given a synthetic burst-buffer reservation (0 = BB off)")
	bbPerNode := flag.Float64("bb-gib-per-node", 4, "burst-buffer reservation per node for assigned jobs, GiB")
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

	if *bbFraction < 0 || *bbFraction > 1 {
		return fmt.Errorf("-bb-fraction must be in [0,1], got %g", *bbFraction)
	}

	if *genSWF > 0 {
		cfg := workload.SWFGenConfig{
			Jobs:         *genSWF,
			Seed:         *seed,
			Nodes:        *genNodes,
			CoresPerNode: *genCores,
			Utilization:  *genUtil,
			QuirkEvery:   *quirkEvery,
		}
		return encodeTo(*out, func(w io.Writer) error {
			if strings.HasSuffix(*out, ".gz") {
				zw := gzip.NewWriter(w)
				if err := workload.WriteSyntheticSWF(zw, cfg); err != nil {
					return err
				}
				return zw.Close()
			}
			return workload.WriteSyntheticSWF(w, cfg)
		})
	}

	if *swf != "" {
		f, err := os.Open(*swf)
		if err != nil {
			return err
		}
		//waschedlint:allow checkederr the SWF trace is opened read-only; close cannot lose data
		defer f.Close()
		opts := workload.DefaultSWFOptions()
		opts.IOFraction = *ioFraction
		opts.MaxJobs = *maxJobs
		opts.Seed = *seed
		if *bbFraction > 0 {
			opts.BBFraction = *bbFraction
			opts.BBGiBPerNode = *bbPerNode
		}
		res, err := workload.ParseSWF(f, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wagen: converted %d jobs (%d dropped)\n", len(res.Jobs), res.Dropped)
		return encodeTo(*out, func(w io.Writer) error { return workload.Encode(w, res.Jobs) })
	}

	var specs []slurm.JobSpec
	switch *name {
	case "w1":
		specs = workload.Workload1()
	case "w2":
		specs = workload.Workload2()
	case "mixed":
		specs = workload.Mixed()
	case "ckpt":
		specs = workload.Checkpointing()
	case "bursty":
		for i := 0; i < 60; i++ {
			specs = append(specs, workload.BurstyJob(3, 120, 8, 5))
		}
	default:
		return fmt.Errorf("unknown workload %q", *name)
	}

	var jobs []workload.TimedSpec
	if *poisson > 0 {
		rng := des.NewRNG(*seed, "wagen/arrivals")
		at := des.Time(0)
		for _, s := range specs {
			at = at.Add(des.FromSeconds(rng.ExpFloat64() * *poisson))
			jobs = append(jobs, workload.TimedSpec{At: at, Spec: s})
		}
	} else {
		jobs = workload.Timed(specs, 0)
	}
	workload.AssignBBDemand(jobs, *bbFraction, *bbPerNode, *seed)

	return encodeTo(*out, func(w io.Writer) error { return workload.Encode(w, jobs) })
}
