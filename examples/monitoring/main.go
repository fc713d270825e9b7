// Monitoring: the observability side of the prototype. Runs a cluster
// under load, injects a mid-run file-system degradation event, and shows
// the two consumers of the monitoring pipeline at work:
//
//  1. the LDMS → SOS counter store (queried directly here), and
//
//  2. the analytics service's measured throughput R_now and per-class
//     estimates.
//
//     go run ./examples/monitoring
package main

import (
	"fmt"
	"log"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/pfs"
	"wasched/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Scheduler = core.SchedulerConfig{Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Load: three waves of writers and sleeps.
	specs := workload.Workload1()[:270]
	if err := sys.PretrainIsolated(specs); err != nil {
		log.Fatal(err)
	}
	if err := sys.SubmitAll(specs); err != nil {
		log.Fatal(err)
	}

	// Fault injection: the backend collapses to 4% for 20 minutes.
	sys.Eng.At(des.TimeFromSeconds(2000), "degrade", func() { sys.FS.SetGlobalDegradation(0.04) })
	sys.Eng.At(des.TimeFromSeconds(3200), "heal", func() { sys.FS.SetGlobalDegradation(1) })

	sys.Start()
	if err := sys.RunToCompletion(100 * des.Hour); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("makespan                  : %.0f s\n", sys.Makespan().Seconds())
	fmt.Printf("R_now at end of run       : %.2f GiB/s\n", sys.Analytics.CurrentThroughput()/pfs.GiB)

	// Raw SOS counters: total bytes each node's Lustre client moved.
	container, _ := sys.Store.Container(ldms.ContainerName)
	fmt.Println("\nper-node client write totals (from the SOS store):")
	for _, node := range sys.Cluster.NodeNames()[:5] {
		rec, ok := container.LastBefore(node, sys.Eng.Now())
		if !ok {
			continue
		}
		fmt.Printf("  %-8s %8.1f GiB over %d samples\n",
			node, rec.Value(ldms.ColWriteBytes)/pfs.GiB,
			len(container.RangeBySource(node, 0, sys.Eng.Now())))
	}

	fmt.Println("\nlearned estimates:")
	for _, fp := range sys.Analytics.Fingerprints() {
		est, _ := sys.Analytics.Estimate(fp)
		fmt.Printf("  %-8s rate %.2f GiB/s, runtime %.0f s, %d observations\n",
			fp, est.Rate/pfs.GiB, est.Runtime.Seconds(), est.Observations)
	}
}
