// SWF replay: drive the prototype with a Standard Workload Format trace
// (the Parallel Workloads Archive format) instead of the paper's synthetic
// workloads. The example generates a small synthetic SWF trace in memory,
// converts it with synthetic I/O assignment, and schedules it twice — under
// default Slurm and under the workload-adaptive scheduler — with the
// multifactor fair-share priority plugin enabled, printing the standard
// scheduling quality metrics for both.
//
//	go run ./examples/swf-replay
package main

import (
	"fmt"
	"log"
	"strings"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

// syntheticSWF builds a 200-job trace: three users submitting a mix of
// narrow/wide, short/long jobs over two hours.
func syntheticSWF() string {
	var b strings.Builder
	b.WriteString("; synthetic SWF trace\n")
	rng := des.NewRNG(7, "example/swf")
	for i := 1; i <= 200; i++ {
		submit := rng.IntN(7200)
		runtime := 60 + rng.IntN(900)
		procs := 56 * (1 + rng.IntN(4)) // 1-4 nodes
		user := 1 + rng.IntN(3)
		fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d 1 1 1 -1 -1 -1\n",
			i, submit, runtime, procs, procs, runtime*2, user)
	}
	return b.String()
}

func run(label string, scfg core.SchedulerConfig, jobs []workload.TimedSpec) {
	cfg := core.DefaultConfig()
	cfg.Scheduler = scfg
	prio, err := slurm.NewMultifactorPriority(5, 1, 50, des.Hour)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Control.Priority = prio
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, tj := range jobs {
		if err := sys.SubmitAt(tj.Spec, tj.At); err != nil {
			log.Fatal(err)
		}
	}
	sys.Start()
	if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
		log.Fatal(err)
	}
	m := trace.ComputeMetrics(sys.Recorder.Jobs())
	fmt.Printf("%-22s makespan %6.0f s | mean wait %5.0f s | p95 wait %6.0f s | bounded slowdown %5.2f\n",
		label, sys.Makespan().Seconds(), m.MeanWait, m.P95Wait, m.MeanBoundedSlowdown)
	fmt.Printf("%-22s user usage: ", "")
	for _, u := range []string{"user1", "user2", "user3"} {
		fmt.Printf("%s=%.1f node-h  ", u, prio.Usage(u))
	}
	fmt.Println()
}

func main() {
	res, err := workload.ParseSWF(strings.NewReader(syntheticSWF()), workload.DefaultSWFOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF conversion: %d jobs kept, %d dropped\n\n", len(res.Jobs), res.Dropped)
	run("default Slurm", core.SchedulerConfig{Policy: "default"}, res.Jobs)
	run("workload-adaptive", core.SchedulerConfig{
		Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}, res.Jobs)
}
