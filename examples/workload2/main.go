// Workload 2: the paper's six-job-type workload (1550 jobs) that motivates
// the two-group approximation (§VII-A). Compares the I/O-aware scheduler at
// the strict 15 GiB/s limit — which runs out of sleep jobs and idles nodes
// — against the workload-adaptive scheduler with the two-group
// approximation, which keeps nodes busy (cf. paper Fig. 5c vs 5e).
//
//	go run ./examples/workload2
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

func run(label string, scfg core.SchedulerConfig) *core.System {
	cfg := core.DefaultConfig()
	cfg.Scheduler = scfg
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	specs := workload.Workload2()
	if err := sys.PretrainIsolated(specs); err != nil {
		log.Fatal(err)
	}
	if err := sys.SubmitAll(specs); err != nil {
		log.Fatal(err)
	}
	sys.Start()
	if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
		log.Fatal(err)
	}
	return sys
}

func idleNodeSeconds(sys *core.System) float64 {
	ms := sys.Makespan().Seconds()
	busy := sys.Recorder.BusyNodes.MeanOver(0, ms)
	return (float64(sys.Cluster.Size()) - busy) * ms
}

func main() {
	ioaware := run("io-aware 15", core.SchedulerConfig{Policy: "io-aware", ThroughputLimit: 15 * pfs.GiB})
	adaptive := run("adaptive 15", core.SchedulerConfig{Policy: "adaptive", ThroughputLimit: 15 * pfs.GiB})
	naive := run("adaptive 15 naive", core.SchedulerConfig{Policy: "adaptive-naive", ThroughputLimit: 15 * pfs.GiB})

	fmt.Printf("Workload 2: %d jobs on 15 nodes, 15 GiB/s limit\n\n", len(workload.Workload2()))
	fmt.Printf("%-36s %12s %14s\n", "configuration", "makespan[s]", "idle[node-s]")
	for _, e := range []struct {
		label string
		sys   *core.System
	}{
		{"I/O-aware (paper Fig. 5c)", ioaware},
		{"adaptive + two-group (paper Fig. 5e)", adaptive},
		{"adaptive, naive (no two-group)", naive},
	} {
		fmt.Printf("%-36s %12.0f %14.0f\n",
			e.label, e.sys.Makespan().Seconds(), idleNodeSeconds(e.sys))
	}

	fmt.Println("\n--- I/O-aware 15 GiB/s: node allocation ---")
	fmt.Print(trace.Plot(&ioaware.Recorder.BusyNodes, 100, 5))
	fmt.Println("\n--- adaptive 15 GiB/s with two-group: node allocation ---")
	fmt.Print(trace.Plot(&adaptive.Recorder.BusyNodes, 100, 5))
}
