package slurm

import (
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/sched"
)

// submitLongRunners fills the rig with long 1-node low-priority sleeps
// (runtime close to limit) so nodes stay occupied for a long time — the
// scenario requeue preemption targets: an urgent wide job otherwise waits
// for the victims' natural completion.
func submitLongRunners(t *testing.T, r *testRig, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		spec := sleepSpec("long", 800*des.Second, 900*des.Second)
		if _, err := r.ctl.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
}

// urgentWide is a 4-node, priority-100 job submitted at t=300 s, mid-way
// through the long runners' occupancy.
func submitUrgentWide(t *testing.T, r *testRig, nodes int) *JobRecord {
	t.Helper()
	wide := JobSpec{Name: "wide", Nodes: nodes, Limit: 400 * des.Second, Priority: 100,
		Program: cluster.SleepProgram{D: 300 * des.Second}}
	if err := r.ctl.SubmitAt(wide, des.TimeFromSeconds(300)); err != nil {
		t.Fatal(err)
	}
	return nil
}

func preemptionConfig() Config {
	cfg := DefaultConfig()
	cfg.Preemption = PreemptionConfig{
		Enabled:       true,
		MaxStarvation: 2 * des.Minute,
		PriorityGap:   50,
	}
	return cfg
}

func TestPreemptionFreesStarvedWideJob(t *testing.T) {
	run := func(cfg Config) (wideWait des.Duration, requeues int) {
		r := newRig(t, 4, sched.NodePolicy{TotalNodes: 4}, cfg)
		n := countRequeues(r.ctl)
		submitLongRunners(t, r, 12)
		submitUrgentWide(t, r, 4)
		r.ctl.Run()
		r.eng.Run(des.TimeFromSeconds(30000))
		var wideRec *JobRecord
		for _, j := range r.ctl.DoneJobs() {
			if j.Spec.Name == "wide" {
				wideRec = j
			}
		}
		if wideRec == nil || wideRec.State != StateCompleted {
			t.Fatalf("wide job: %+v", wideRec)
		}
		return wideRec.WaitTime(), *n
	}
	withWait, withRequeues := run(preemptionConfig())
	withoutWait, withoutRequeues := run(DefaultConfig())
	if withoutRequeues != 0 {
		t.Fatalf("preemption off must never requeue, got %d", withoutRequeues)
	}
	if withRequeues == 0 {
		t.Fatal("preemption on must requeue the long-running victims")
	}
	if withWait >= withoutWait {
		t.Fatalf("preemption must shorten the wide job's wait: %v vs %v", withWait, withoutWait)
	}
	// The starvation threshold is honoured: no preemption before it.
	if withWait < 2*des.Minute {
		t.Fatalf("preempted before the starvation threshold: waited %v", withWait)
	}
}

func TestPreemptedJobsCompleteEventually(t *testing.T) {
	r := newRig(t, 4, sched.NodePolicy{TotalNodes: 4}, preemptionConfig())
	submitLongRunners(t, r, 12)
	submitUrgentWide(t, r, 4)
	var requeued []*JobRecord
	r.ctl.OnEvent(func(e Event) {
		if e.Kind == EventRequeue {
			requeued = append(requeued, e.Job)
			if e.Job.State != StatePending || e.Job.Start != 0 {
				t.Errorf("requeued job not reset: %+v", e.Job)
			}
		}
	})
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(30000))
	if len(requeued) == 0 {
		t.Fatal("expected requeues")
	}
	if r.ctl.DoneCount() != 13 {
		t.Fatalf("all jobs must finish: %d of 13", r.ctl.DoneCount())
	}
	for _, j := range requeued {
		if j.State != StateCompleted {
			t.Fatalf("requeued job %s ended %v", j.ID, j.State)
		}
	}
	if !idle(r.ctl) || r.cl.FreeNodes() != 4 {
		t.Fatal("accounting must balance after preemptions")
	}
}

func TestPreemptionRespectsPriorityGap(t *testing.T) {
	cfg := preemptionConfig()
	cfg.Preemption.PriorityGap = 1000 // nothing trails by this much
	r := newRig(t, 4, sched.NodePolicy{TotalNodes: 4}, cfg)
	submitLongRunners(t, r, 12)
	submitUrgentWide(t, r, 4)
	n := countRequeues(r.ctl)
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(30000))
	if *n != 0 {
		t.Fatalf("gap too large for any victim, yet %d requeues", *n)
	}
}
