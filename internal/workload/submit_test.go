package workload

import (
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/slurm"
)

func sleepSpecs(n int) []slurm.JobSpec {
	specs := make([]slurm.JobSpec, n)
	for i := range specs {
		specs[i] = slurm.JobSpec{
			Name: "s", Nodes: 1, Limit: 200 * des.Second,
			Program: cluster.SleepProgram{D: 10 * des.Second},
		}
	}
	return specs
}

func TestSubmitAllEmpty(t *testing.T) {
	_, ctl := feederRig(t)
	recs, err := SubmitAll(ctl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || ctl.QueueLength() != 0 {
		t.Fatalf("empty workload: %d records, queue %d", len(recs), ctl.QueueLength())
	}
}

func TestSubmitTimedDuplicateTimes(t *testing.T) {
	// Every job shares one submission instant (the paper's batch protocol
	// expressed as timed specs, submitted one by one as wasim does). All
	// must enter the queue, in spec order.
	eng, ctl := feederRig(t)
	specs := sleepSpecs(12)
	for _, tj := range Timed(specs, des.TimeFromSeconds(5)) {
		if err := ctl.SubmitAt(tj.Spec, tj.At); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.QueueLength() != 0 {
		t.Fatalf("queue %d before the submission instant", ctl.QueueLength())
	}
	eng.Run(des.TimeFromSeconds(5))
	if ctl.QueueLength() != len(specs) {
		t.Fatalf("queue %d at the submission instant, want %d", ctl.QueueLength(), len(specs))
	}
	ctl.Run()
	eng.Run(des.TimeFromSeconds(3600))
	if ctl.DoneCount() != len(specs) {
		t.Fatalf("done: %d, want %d", ctl.DoneCount(), len(specs))
	}
}

func TestSubmitPoissonBurstAtZero(t *testing.T) {
	// A near-zero mean collapses the exponential gaps so that (almost)
	// every arrival lands at t=0 — the degenerate burst. Nothing may panic
	// (scheduling in the past is a causality violation the engine rejects)
	// and every job must run.
	eng, ctl := feederRig(t)
	specs := sleepSpecs(20)
	rng := des.NewRNG(1, "poisson-burst")
	if err := SubmitPoisson(ctl, specs, des.Duration(1), rng); err != nil {
		t.Fatal(err)
	}
	ctl.Run()
	eng.Run(des.TimeFromSeconds(3600))
	if ctl.DoneCount() != len(specs) {
		t.Fatalf("done: %d, want %d", ctl.DoneCount(), len(specs))
	}
}

func TestSubmitPoissonRejectsNonPositiveMean(t *testing.T) {
	_, ctl := feederRig(t)
	rng := des.NewRNG(1, "poisson")
	if err := SubmitPoisson(ctl, sleepSpecs(1), 0, rng); err == nil {
		t.Fatal("zero mean must fail")
	}
	if err := SubmitPoisson(ctl, sleepSpecs(1), -des.Second, rng); err == nil {
		t.Fatal("negative mean must fail")
	}
}
