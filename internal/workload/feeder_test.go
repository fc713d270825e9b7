package workload

import (
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
)

func feederRig(t *testing.T) (*des.Engine, *slurm.Controller) {
	t.Helper()
	eng := des.NewEngine()
	pcfg := pfs.DefaultConfig()
	pcfg.NoiseSigma = 0
	fs, err := pfs.New(eng, pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(eng, fs, 4, "n", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := slurm.New(eng, cl, sched.NodePolicy{TotalNodes: 4}, nil, slurm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, ctl
}

func TestFeederValidation(t *testing.T) {
	eng, ctl := feederRig(t)
	if _, err := StartFeeder(eng, ctl, nil, 0, des.Second); err == nil {
		t.Fatal("zero depth must fail")
	}
	if _, err := StartFeeder(eng, ctl, nil, 5, 0); err == nil {
		t.Fatal("zero period must fail")
	}
}

func TestFeederBoundsQueueDepth(t *testing.T) {
	eng, ctl := feederRig(t)
	var specs []slurm.JobSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, slurm.JobSpec{
			Name: "s", Nodes: 1, Limit: 200 * des.Second,
			Program: cluster.SleepProgram{D: 100 * des.Second},
		})
	}
	f, err := StartFeeder(eng, ctl, specs, 6, 5*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.next != 6 {
		t.Fatalf("initial fill: %d", f.next)
	}
	ctl.Run()
	maxQueue := 0
	stop := eng.Ticker(des.Second, "probe", func(des.Time) {
		if q := ctl.QueueLength(); q > maxQueue {
			maxQueue = q
		}
	})
	eng.Run(des.TimeFromSeconds(3600))
	stop()
	if f.next != len(specs) {
		t.Fatalf("feeder must exhaust, submitted %d", f.next)
	}
	if ctl.DoneCount() != 40 {
		t.Fatalf("done: %d", ctl.DoneCount())
	}
	if maxQueue > 6 {
		t.Fatalf("queue depth exceeded: %d", maxQueue)
	}
}

func TestFeederEmptySpecsLeavesNoTicker(t *testing.T) {
	// A zero-job trace exhausts on the initial fill; the feeder must not
	// install its ticker, or the engine would hold a forever-firing event
	// and never drain.
	eng, ctl := feederRig(t)
	f, err := StartFeeder(eng, ctl, nil, 4, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !f.closed || f.next != 0 {
		t.Fatalf("empty feeder: closed=%v submitted=%d", f.closed, f.next)
	}
	if f.stop != nil {
		t.Fatal("empty feeder installed its ticker")
	}
	f.Stop() // idempotent on a feeder that never ticked
}

func TestFeederShallowWorkloadExhaustsImmediately(t *testing.T) {
	// Specs that fit inside the depth bound are all submitted by the
	// initial fill — same no-ticker contract as the empty trace.
	eng, ctl := feederRig(t)
	specs := []slurm.JobSpec{
		{Name: "s", Nodes: 1, Limit: 200 * des.Second, Program: cluster.SleepProgram{D: des.Second}},
		{Name: "s", Nodes: 1, Limit: 200 * des.Second, Program: cluster.SleepProgram{D: des.Second}},
	}
	f, err := StartFeeder(eng, ctl, specs, 6, 5*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !f.closed || f.next != len(specs) {
		t.Fatalf("shallow feeder: closed=%v submitted=%d", f.closed, f.next)
	}
	if f.stop != nil {
		t.Fatal("shallow feeder installed its ticker")
	}
	ctl.Run()
	eng.Run(des.TimeFromSeconds(3600))
	if ctl.DoneCount() != len(specs) {
		t.Fatalf("done: %d, want %d", ctl.DoneCount(), len(specs))
	}
}

func TestFeederStop(t *testing.T) {
	eng, ctl := feederRig(t)
	var specs []slurm.JobSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, slurm.JobSpec{
			Name: "s", Nodes: 1, Limit: 200 * des.Second,
			Program: cluster.SleepProgram{D: 100 * des.Second},
		})
	}
	f, _ := StartFeeder(eng, ctl, specs, 4, 5*des.Second)
	ctl.Run()
	eng.Run(des.TimeFromSeconds(50))
	f.Stop()
	n := f.next
	eng.Run(des.TimeFromSeconds(3600))
	if f.next != n {
		t.Fatal("stopped feeder must not submit")
	}
	f.Stop() // idempotent
}
