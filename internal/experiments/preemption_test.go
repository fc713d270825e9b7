package experiments

import (
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/slurm"
)

// A preemption-enabled run must pass the full invariant suite with the
// FIFO-within-class order check ACTIVE: per-attempt trace records carry
// their own eligible times, so requeues no longer force the check off.
func TestPreemptionRunValidatesOrderCheck(t *testing.T) {
	opts := DefaultOptions(sched.NodePolicy{TotalNodes: Nodes}, 1)
	opts.Slurm.Preemption = slurm.PreemptionConfig{
		Enabled:       true,
		MaxStarvation: 2 * des.Minute,
		PriorityGap:   50,
	}
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Long low-priority 1-node runners hold every node for a long time...
	for i := 0; i < 3*Nodes; i++ {
		sys.MustSubmit(slurm.JobSpec{
			Name: "long", Nodes: 1, Limit: 900 * des.Second,
			Program: cluster.SleepProgram{D: 800 * des.Second},
		})
	}
	// ...so the urgent wide job arriving mid-way can only start by
	// preempting victims once its starvation threshold passes.
	wide := slurm.JobSpec{
		Name: "wide", Nodes: Nodes, Limit: 400 * des.Second, Priority: 100,
		Program: cluster.SleepProgram{D: 300 * des.Second},
	}
	if err := sys.SubmitAt(wide, des.TimeFromSeconds(300)); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunToCompletion(100 * des.Hour); err != nil {
		t.Fatal(err)
	}
	res := summarize(sys, "preemption-validate")
	if err := res.Invariants.Err(); err != nil {
		t.Fatalf("preemption run failed validation with order check active: %v", err)
	}

	// The recorder kept one record per attempt: preempted attempts are
	// marked Requeued with their own eligible windows, and some job has a
	// second attempt.
	requeued, secondAttempts := 0, 0
	for _, j := range res.Recorder.Jobs() {
		if j.Requeued {
			requeued++
			if j.End <= j.Start {
				t.Fatalf("requeued attempt %s has empty hold [%f,%f)", j.ID, j.Start, j.End)
			}
		}
		if j.Attempt > 1 {
			secondAttempts++
			if j.Eligible <= j.Submit {
				t.Fatalf("attempt %d of %s must be eligible after submit: eligible %f submit %f",
					j.Attempt, j.ID, j.Eligible, j.Submit)
			}
		}
	}
	if requeued == 0 || secondAttempts == 0 {
		t.Fatalf("per-attempt records missing: %d requeued, %d later attempts", requeued, secondAttempts)
	}
}
