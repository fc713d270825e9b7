package slurm

import (
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
)

func TestMultifactorAgeRaisesPriority(t *testing.T) {
	m, err := NewMultifactorPriority(10, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &JobRecord{Submit: 0, Spec: JobSpec{Nodes: 1}}
	early := m.Priority(r, des.TimeFromSeconds(3600))
	late := m.Priority(r, des.TimeFromSeconds(36000))
	if late <= early {
		t.Fatalf("age must raise priority: %d vs %d", early, late)
	}
}

func TestMultifactorValidation(t *testing.T) {
	if _, err := NewMultifactorPriority(-1, 0, 0, 0); err == nil {
		t.Fatal("negative weight must fail")
	}
	if _, err := NewMultifactorPriority(0, 0, 0, -des.Second); err == nil {
		t.Fatal("negative half-life must fail")
	}
	m, _ := NewMultifactorPriority(0, 0, 0, 0)
	if m.HalfLife != 7*24*des.Hour {
		t.Fatal("default half-life")
	}
}

func TestMultifactorUsageDecay(t *testing.T) {
	m, _ := NewMultifactorPriority(0, 0, 1, des.Hour)
	heavy := &JobRecord{Spec: JobSpec{User: "alice", Nodes: 10}, Start: 0, End: des.TimeFromSeconds(3600)}
	heavy.State = StateCompleted
	m.JobEnded(heavy)
	if got := m.Usage("alice"); got < 9.9 || got > 10.1 {
		t.Fatalf("usage = %v node-hours, want 10", got)
	}
	// One half-life later the charge has halved.
	r := &JobRecord{Spec: JobSpec{User: "alice", Nodes: 1}}
	_ = m.Priority(r, des.TimeFromSeconds(2*3600))
	if got := m.Usage("alice"); got < 4.9 || got > 5.1 {
		t.Fatalf("decayed usage = %v, want ~5", got)
	}
}

func TestFairShareReordersUsers(t *testing.T) {
	m, _ := NewMultifactorPriority(0, 0, 100, des.Hour)
	cfg := DefaultConfig()
	cfg.Priority = m
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, cfg)
	// Alice burns node-hours first.
	aliceJob := sleepSpec("alice1", 600*des.Second, 900*des.Second)
	aliceJob.User = "alice"
	_, _ = r.ctl.Submit(aliceJob)
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(700))
	// Now alice and bob queue behind a running job; bob (no usage) must
	// win despite alice submitting first.
	blocker := sleepSpec("blocker", 300*des.Second, 600*des.Second)
	_, _ = r.ctl.Submit(blocker)
	r.eng.Run(des.TimeFromSeconds(710))
	a2 := sleepSpec("alice2", 60*des.Second, 120*des.Second)
	a2.User = "alice"
	aliceRec, _ := r.ctl.Submit(a2)
	b := sleepSpec("bob1", 60*des.Second, 120*des.Second)
	b.User = "bob"
	bobRec, _ := r.ctl.Submit(b)
	r.eng.Run(des.TimeFromSeconds(3600))
	if aliceRec.State != StateCompleted || bobRec.State != StateCompleted {
		t.Fatalf("states: %v %v", aliceRec.State, bobRec.State)
	}
	if bobRec.Start >= aliceRec.Start {
		t.Fatalf("fair share must favour bob (start %v) over alice (start %v)",
			bobRec.Start, aliceRec.Start)
	}
}

func TestStaticPriorityDominatesMultifactor(t *testing.T) {
	m, _ := NewMultifactorPriority(10, 1, 1, des.Hour)
	r := &JobRecord{Spec: JobSpec{Nodes: 1, Priority: 5}}
	urgent := m.Priority(r, des.TimeFromSeconds(60))
	normal := m.Priority(&JobRecord{Spec: JobSpec{Nodes: 14}}, des.TimeFromSeconds(36000))
	if urgent <= normal {
		t.Fatalf("static priority must dominate: %d vs %d", urgent, normal)
	}
}

func TestRateQuantileConservativeEstimates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RateQuantile = 1.0 // max observed rate
	r := newRig(t, 2, sched.IOAwarePolicy{TotalNodes: 2, ThroughputLimit: 5 * pfs.GiB}, cfg)
	// Build history with varying rates: the quantile must pick the top.
	r.svc.Pretrain("writer", 0.1*pfs.GiB, 30*des.Second)
	r.ctl.Run()
	for i := 0; i < 3; i++ {
		rec, _ := r.ctl.Submit(writeSpec("writer", 8, 10, 600*des.Second))
		r.eng.Run(r.eng.Now().Add(des.FromSeconds(300)))
		if rec.State != StateCompleted {
			t.Fatalf("writer %d: %v", i, rec.State)
		}
	}
	// The conservative estimate (max observed, ~2.5-3 GiB/s) blocks two
	// writers sharing a 5 GiB/s limit; the decayed EWMA might not.
	a, _ := r.ctl.Submit(writeSpec("writer", 8, 40, 900*des.Second))
	b, _ := r.ctl.Submit(writeSpec("writer", 8, 40, 900*des.Second))
	r.eng.Run(r.eng.Now().Add(des.FromSeconds(5)))
	if a.State != StateRunning {
		t.Fatalf("first writer: %v", a.State)
	}
	if b.State == StateRunning {
		t.Fatal("conservative quantile must serialize the writers")
	}
	// Bad quantile rejected.
	bad := DefaultConfig()
	bad.RateQuantile = 2
	if bad.Validate() == nil {
		t.Fatal("RateQuantile > 1 must fail")
	}
}
