package bb

import (
	"errors"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
)

func newTestTier(t *testing.T, capacity float64) (*des.Engine, *pfs.FileSystem, *Tier) {
	t.Helper()
	eng := des.NewEngine()
	cfg := pfs.DefaultConfig()
	cfg.NoiseSigma = 0
	cfg.BurstBoost = 1
	cfg.MDSLatency = 0
	cfg.MDSOpsPerSec = 1e9
	fs, err := pfs.New(eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := New(eng, fs, Config{CapacityBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs, tier
}

func TestAdmitCapacityAccounting(t *testing.T) {
	_, _, tier := newTestTier(t, 100)
	if err := tier.Admit("j1", 60); err != nil {
		t.Fatal(err)
	}
	if tier.Occupied() != 60 {
		t.Fatalf("occupied = %g", tier.Occupied())
	}
	if err := tier.Admit("j2", 50); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity admit: %v", err)
	}
	if err := tier.Admit("j3", 40); err != nil {
		t.Fatal(err)
	}
	if tier.Occupied() != 100 {
		t.Fatalf("occupied = %g", tier.Occupied())
	}
}

func TestFeasibleRejectsImpossibleDemand(t *testing.T) {
	_, _, tier := newTestTier(t, 100)
	if err := tier.Feasible(150); err == nil {
		t.Fatal("demand above pool capacity must be infeasible")
	}
	if err := tier.Feasible(0); err == nil {
		t.Fatal("non-positive demand must be infeasible")
	}
}

func TestStageInComputeDrainLifecycle(t *testing.T) {
	eng, fs, tier := newTestTier(t, 100*pfs.GiB)
	if err := tier.Admit("j1", 60*pfs.GiB); err != nil {
		t.Fatal(err)
	}
	prog := tier.Wrap("j1", cluster.SleepProgram{D: 10 * des.Second})
	ctx := &cluster.Context{Eng: eng, FS: fs, RNG: des.NewRNG(1, "job/j1")}
	done := false
	prog.Start(ctx, []string{"node1"}, func() {
		done = true
		tier.JobEnded("j1", false)
	})
	eng.Run(des.TimeFromSeconds(1e6))
	if !done {
		t.Fatal("program never completed")
	}
	if tier.Occupied() != 0 {
		t.Fatalf("occupied after drain = %g", tier.Occupied())
	}
	led := tier.Ledger()
	if len(led) != 1 {
		t.Fatalf("ledger = %+v", led)
	}
	e := led[0]
	if !e.Staged || e.Requeued {
		t.Fatalf("entry flags: %+v", e)
	}
	if !(e.Admitted <= e.StageInDone && e.StageInDone == e.ComputeStart && e.ComputeStart < e.Ended && e.Ended <= e.DrainEnd) {
		t.Fatalf("milestone order: %+v", e)
	}
	// Stage-in moves real bytes through the PFS, so compute starts strictly
	// after admission and the drain strictly after the program's end.
	if e.StageInDone == e.Admitted || e.DrainEnd == e.Ended {
		t.Fatalf("stage/drain must take simulated time: %+v", e)
	}
	if e.Drained != 60*pfs.GiB {
		t.Fatalf("drained = %g", e.Drained)
	}
	// Program end = stage-in end + 10 s sleep.
	if got := e.Ended.Sub(e.ComputeStart); got != 10*des.Second {
		t.Fatalf("compute duration = %v", got)
	}
}

func TestKillDuringStageInDrainsNothing(t *testing.T) {
	eng, fs, tier := newTestTier(t, 100*pfs.GiB)
	if err := tier.Admit("j1", 60*pfs.GiB); err != nil {
		t.Fatal(err)
	}
	prog := tier.Wrap("j1", cluster.SleepProgram{D: 10 * des.Second})
	ctx := &cluster.Context{Eng: eng, FS: fs, RNG: des.NewRNG(1, "job/j1")}
	stop := prog.Start(ctx, []string{"node1"}, func() { t.Fatal("done must not fire after stop") })
	stop()
	tier.JobEnded("j1", true)
	eng.Run(des.TimeFromSeconds(1e6))
	if tier.Occupied() != 0 {
		t.Fatalf("occupied = %g", tier.Occupied())
	}
	led := tier.Ledger()
	if len(led) != 1 || led[0].Staged || led[0].Drained != 0 || !led[0].Requeued {
		t.Fatalf("ledger = %+v", led)
	}
}

func TestApplianceNodesAndRates(t *testing.T) {
	eng, fs, tier := newTestTier(t, 100*pfs.GiB)
	names := tier.ApplianceNodes()
	if len(names) != 4 || names[0] != "bb-in0" || names[3] != "bb-out1" {
		t.Fatalf("appliance nodes: %v", names)
	}
	if err := tier.Admit("j1", 60*pfs.GiB); err != nil {
		t.Fatal(err)
	}
	prog := tier.Wrap("j1", cluster.SleepProgram{D: 10 * des.Second})
	ctx := &cluster.Context{Eng: eng, FS: fs, RNG: des.NewRNG(1, "job/j1")}
	prog.Start(ctx, []string{"node1"}, func() { tier.JobEnded("j1", false) })
	eng.Run(des.TimeFromSeconds(1))
	stage, drain := tier.Rates()
	if stage <= 0 || drain != 0 {
		t.Fatalf("mid-stage rates: stage=%g drain=%g", stage, drain)
	}
}
