// Quickstart: build a 15-node cluster with the calibrated Lustre model,
// submit a small mix of I/O-heavy and idle jobs under the workload-adaptive
// scheduler, and print the outcome.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Scheduler = core.SchedulerConfig{
		Policy:          "adaptive",
		ThroughputLimit: 20 * pfs.GiB,
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A miniature wave: 10 write×8 jobs (80 GiB each) and 20 sleep jobs.
	for i := 0; i < 10; i++ {
		sys.MustSubmit(workload.WriteJob(8))
	}
	for i := 0; i < 20; i++ {
		sys.MustSubmit(workload.SleepJob())
	}

	sys.Start()
	if err := sys.RunToCompletion(24 * des.Hour); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduler      : %s\n", sys.Controller.Policy().Name())
	fmt.Printf("jobs completed : %d\n", sys.Controller.DoneCount())
	fmt.Printf("makespan       : %.0f s\n", sys.Makespan().Seconds())
	fmt.Printf("data written   : %.0f GiB\n", sys.FS.TotalCounters().WriteBytes/pfs.GiB)
	fmt.Printf("throughput     : %s\n", trace.Sparkline(&sys.Recorder.Throughput, 60))
	fmt.Printf("busy nodes     : %s\n", trace.Sparkline(&sys.Recorder.BusyNodes, 60))

	// The analytics service learned each job class from monitoring data.
	for _, fp := range sys.Analytics.Fingerprints() {
		est, _ := sys.Analytics.Estimate(fp)
		fmt.Printf("estimate %-8s: %.2f GiB/s over %.0f s (%d observations)\n",
			fp, est.Rate/pfs.GiB, est.Runtime.Seconds(), est.Observations)
	}

	fmt.Println()
	fmt.Print(trace.Gantt(sys.Recorder.Jobs(), 72))
}
