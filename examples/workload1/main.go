// Workload 1: the paper's first evaluation workload (8 waves of 30
// "write×8" + 60 "sleep" jobs, 720 jobs total) scheduled under all five
// configurations of paper Fig. 3. Prints the makespan comparison and the
// throughput/allocation panels for the default and adaptive schedulers.
//
//	go run ./examples/workload1
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

type variant struct {
	label    string
	sched    core.SchedulerConfig
	pretrain bool
}

func main() {
	variants := []variant{
		{"default Slurm", core.SchedulerConfig{Policy: "default"}, false},
		{"I/O-aware 20 GiB/s", core.SchedulerConfig{Policy: "io-aware", ThroughputLimit: 20 * pfs.GiB}, true},
		{"I/O-aware 15 GiB/s", core.SchedulerConfig{Policy: "io-aware", ThroughputLimit: 15 * pfs.GiB}, true},
		{"adaptive 20 GiB/s", core.SchedulerConfig{Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}, true},
		{"adaptive 20 GiB/s (untrained)", core.SchedulerConfig{Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}, false},
	}
	specs := workload.Workload1()
	fmt.Printf("Workload 1: %d jobs on 15 nodes\n\n", len(specs))
	fmt.Printf("%-32s %12s %9s\n", "configuration", "makespan[s]", "vs base")

	var base float64
	var defaultSys, adaptiveSys *core.System
	for i, v := range variants {
		cfg := core.DefaultConfig()
		cfg.Scheduler = v.sched
		sys, err := core.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if v.pretrain {
			if err := sys.PretrainIsolated(specs); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.SubmitAll(specs); err != nil {
			log.Fatal(err)
		}
		sys.Start()
		if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
			log.Fatal(err)
		}
		ms := sys.Makespan().Seconds()
		vs := "-"
		if i == 0 {
			base = ms
			defaultSys = sys
		} else {
			vs = fmt.Sprintf("%+.1f%%", 100*(ms-base)/base)
		}
		if i == 3 {
			adaptiveSys = sys
		}
		fmt.Printf("%-32s %12.0f %9s\n", v.label, ms, vs)
	}

	fmt.Println("\n--- default Slurm (cf. paper Fig. 3a): bursts of I/O then idle I/O ---")
	fmt.Print(trace.Plot(&defaultSys.Recorder.Throughput, 100, 7))
	fmt.Println("\n--- adaptive (cf. paper Fig. 3d): steady trickle of I/O ---")
	fmt.Print(trace.Plot(&adaptiveSys.Recorder.Throughput, 100, 7))
}
