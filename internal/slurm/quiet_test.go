package slurm_test

import (
	"testing"

	"wasched/internal/des"
	"wasched/internal/experiments"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/tbf"
	"wasched/internal/workload"
)

// TestQuietRoundsMatchFreshRounds runs the full prototype at seed 1 on
// Workload 1 under the two-group adaptive policy and under io-aware
// scheduling (whose guard reads the measured throughput), and on Workload
// 2 under tbf-straggler tokens, and holds every round the controller
// skips as quiet or carries to a from-scratch round over the same input
// (CheckQuietRounds). Each run must also carry rounds, so a change that
// stops the controller carrying shows here.
func TestQuietRoundsMatchFreshRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full-prototype workloads")
	}
	w2 := experiments.DefaultOptions(sched.TBFPolicy{TotalNodes: experiments.Nodes, Straggler: true}, 1)
	w2.TBF = tbf.Config{CapacityBytesPerSec: 10 * pfs.GiB, Straggler: true}
	for _, tc := range []struct {
		name  string
		opts  experiments.Options
		specs []slurm.JobSpec
	}{
		{"w1-adaptive", experiments.DefaultOptions(sched.AdaptivePolicy{
			TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit20, TwoGroup: true}, 1), workload.Workload1()},
		{"w1-io-aware", experiments.DefaultOptions(sched.IOAwarePolicy{
			TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit15}, 1), workload.Workload1()},
		{"w2-tbf-straggler", w2, workload.Workload2()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := experiments.Build(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := experiments.Pretrain(sys, tc.specs); err != nil {
				t.Fatal(err)
			}
			slurm.CheckQuietRounds(sys.Controller, t.Errorf)
			if err := sys.SubmitAll(tc.specs); err != nil {
				t.Fatal(err)
			}
			sys.Start()
			if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
				t.Fatal(err)
			}
			quiet, carried := slurm.SkippedRounds(sys.Controller)
			if quiet == 0 {
				t.Fatal("no round was quiet, so nothing was checked")
			}
			if carried == 0 {
				t.Fatal("no round was carried, so no carry was checked")
			}
			t.Logf("%d of %d rounds quiet, %d carried", quiet, sys.Controller.Rounds(), carried)
		})
	}
}
