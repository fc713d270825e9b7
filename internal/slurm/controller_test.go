package slurm

import (
	"fmt"
	"testing"

	"wasched/internal/analytics"
	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/sos"
)

// testRig wires a full quiet-mode system: pfs + cluster + ldms + analytics
// + controller with a chosen policy. Every round the controller skips as
// quiet or carries is cross-checked against a from-scratch round
// (CheckQuietRounds), so each rig test is also a quiet-round test.
type testRig struct {
	eng  *des.Engine
	fs   *pfs.FileSystem
	cl   *cluster.Cluster
	svc  *analytics.Service
	ctl  *Controller
	stop func()
}

func newRig(t *testing.T, nodes int, policy sched.Policy, cfg Config) *testRig {
	t.Helper()
	eng := des.NewEngine()
	pcfg := pfs.DefaultConfig()
	pcfg.NoiseSigma = 0
	pcfg.BurstBoost = 1
	pcfg.MDSLatency = 0
	pcfg.MDSOpsPerSec = 1e9
	fs, err := pfs.New(eng, pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(eng, fs, nodes, "n", 1)
	if err != nil {
		t.Fatal(err)
	}
	store := sos.NewStore()
	lcfg := ldms.DefaultConfig()
	lcfg.PhaseJitter = false
	daemon, err := ldms.Start(eng, fs, store, cl.NodeNames(), lcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := analytics.New(eng, store, cl.NodeNames(), analytics.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(eng, cl, policy, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	CheckQuietRounds(ctl, t.Errorf)
	return &testRig{eng: eng, fs: fs, cl: cl, svc: svc, ctl: ctl, stop: daemon.Stop}
}

func sleepSpec(name string, d des.Duration, limit des.Duration) JobSpec {
	return JobSpec{Name: name, Nodes: 1, Limit: limit, Program: cluster.SleepProgram{D: d}}
}

func writeSpec(name string, threads int, gib float64, limit des.Duration) JobSpec {
	return JobSpec{
		Name: name, Nodes: 1, Limit: limit,
		Program: cluster.WriteProgram{Threads: threads, BytesPerThread: gib * pfs.GiB},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SchedInterval: 0},
		{SchedInterval: des.Second, Options: sched.Options{BackfillMax: -1}},
		{SchedInterval: des.Second, Options: sched.Options{MaxJobTest: -1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d must fail", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	eng := des.NewEngine()
	if _, err := New(eng, nil, nil, nil, DefaultConfig()); err == nil {
		t.Fatal("nil policy must error")
	}
	if _, err := New(eng, nil, sched.NodePolicy{TotalNodes: 1}, nil, Config{}); err == nil {
		t.Fatal("bad config must error")
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, 4, sched.NodePolicy{TotalNodes: 4}, DefaultConfig())
	cases := []JobSpec{
		{Name: "no-nodes", Nodes: 0, Limit: des.Second, Program: cluster.SleepProgram{D: des.Second}},
		{Name: "too-big", Nodes: 5, Limit: des.Second, Program: cluster.SleepProgram{D: des.Second}},
		{Name: "no-limit", Nodes: 1, Limit: 0, Program: cluster.SleepProgram{D: des.Second}},
		{Name: "no-program", Nodes: 1, Limit: des.Second},
	}
	for _, spec := range cases {
		if _, err := r.ctl.Submit(spec); err == nil {
			t.Errorf("spec %q must be rejected", spec.Name)
		}
		if err := r.ctl.SubmitAt(spec, des.TimeFromSeconds(10)); err == nil {
			t.Errorf("deferred spec %q must be rejected", spec.Name)
		}
	}
}

func TestLifecycleAndAccounting(t *testing.T) {
	r := newRig(t, 2, sched.NodePolicy{TotalNodes: 2}, DefaultConfig())
	var events []Event
	r.ctl.OnEvent(func(e Event) { events = append(events, e) })
	rec, err := r.ctl.Submit(sleepSpec("sleepy", 100*des.Second, 200*des.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StatePending || rec.State.String() != "PENDING" {
		t.Fatalf("state: %v", rec.State)
	}
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(1))
	if rec.State != StateRunning || rec.State.String() != "RUNNING" {
		t.Fatalf("state after round: %v", rec.State)
	}
	if r.ctl.RunningCount() != 1 || r.ctl.QueueLength() != 0 {
		t.Fatal("queue accounting")
	}
	r.eng.Run(des.TimeFromSeconds(500))
	if rec.State != StateCompleted {
		t.Fatalf("state at end: %v", rec.State)
	}
	if rec.Runtime() != 100*des.Second {
		t.Fatalf("runtime: %v", rec.Runtime())
	}
	if rec.WaitTime() != rec.Start.Sub(rec.Submit) {
		t.Fatal("wait time")
	}
	if r.ctl.DoneCount() != 1 || !idle(r.ctl) {
		t.Fatal("done accounting")
	}
	if r.ctl.Makespan() != rec.End {
		t.Fatal("makespan")
	}
	kinds := []EventKind{EventSubmit, EventStart, EventEnd}
	if len(events) != 3 {
		t.Fatalf("events: %d", len(events))
	}
	for i, e := range events {
		if e.Kind != kinds[i] || e.Job != rec {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	if got, ok := r.ctl.Job(rec.ID); !ok || got != rec {
		t.Fatal("Job lookup")
	}
	if _, ok := r.ctl.Job("nope"); ok {
		t.Fatal("unknown job lookup must fail")
	}
}

func TestTimeoutKillsJob(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	rec, _ := r.ctl.Submit(sleepSpec("overrun", 1000*des.Second, 60*des.Second))
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(3000))
	if rec.State != StateTimeout || rec.State.String() != "TIMEOUT" {
		t.Fatalf("state: %v", rec.State)
	}
	if rec.Runtime() != 60*des.Second {
		t.Fatalf("killed at %v after start, want 60s", rec.Runtime())
	}
	if r.cl.FreeNodes() != 1 {
		t.Fatal("nodes must free after kill")
	}
}

func TestFIFOOrderAndBackfillQueueDrain(t *testing.T) {
	r := newRig(t, 2, sched.NodePolicy{TotalNodes: 2}, DefaultConfig())
	var recs []*JobRecord
	for i := 0; i < 6; i++ {
		rec, _ := r.ctl.Submit(sleepSpec("s", 100*des.Second, 150*des.Second))
		recs = append(recs, rec)
	}
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(3600))
	if !idle(r.ctl) || r.ctl.DoneCount() != 6 {
		t.Fatalf("all jobs must finish: done=%d", r.ctl.DoneCount())
	}
	// FIFO: starts must be non-decreasing in submit order.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("FIFO violated: job %d started %v before job %d (%v)",
				i, recs[i].Start, i-1, recs[i-1].Start)
		}
	}
	// 6 jobs × 100 s on 2 nodes = 3 sequential batches ≈ 300 s + round lag.
	if ms := r.ctl.Makespan().Seconds(); ms < 300 || ms > 400 {
		t.Fatalf("makespan %.1fs out of expected band", ms)
	}
}

func TestPriorityOverridesFIFO(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	first, _ := r.ctl.Submit(sleepSpec("first", 50*des.Second, 100*des.Second))
	second, _ := r.ctl.Submit(sleepSpec("second", 50*des.Second, 100*des.Second))
	urgent := sleepSpec("urgent", 50*des.Second, 100*des.Second)
	urgent.Priority = 100
	third, _ := r.ctl.Submit(urgent)
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(3600))
	if !(first.Start < third.Start) {
		// first starts immediately (it was already runnable at kick time
		// in submit order)... priority applies among still-pending jobs.
		t.Logf("first=%v urgent=%v", first.Start, third.Start)
	}
	if third.Start > second.Start {
		t.Fatalf("urgent (%v) must start before second (%v)", third.Start, second.Start)
	}
}

func TestSubmitAtArrivals(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	if err := r.ctl.SubmitAt(sleepSpec("later", 10*des.Second, 60*des.Second), des.TimeFromSeconds(500)); err != nil {
		t.Fatal(err)
	}
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(400))
	if r.ctl.QueueLength() != 0 && r.ctl.RunningCount() != 0 {
		t.Fatal("nothing should exist before arrival")
	}
	r.eng.Run(des.TimeFromSeconds(1000))
	if r.ctl.DoneCount() != 1 {
		t.Fatal("arrived job must run and finish")
	}
	done := r.ctl.DoneJobs()
	if len(done) != 1 || done[0].Submit != des.TimeFromSeconds(500) {
		t.Fatalf("submit time: %v", done[0].Submit)
	}
	// Start happens at the kick following arrival, not a full interval later.
	if done[0].WaitTime() > des.Second {
		t.Fatalf("arrival kick too slow: waited %v", done[0].WaitTime())
	}
}

func TestEstimatorLearnsAcrossJobs(t *testing.T) {
	// Two generations of the same write job class: after the first
	// completes, the estimator must hold a non-zero rate estimate.
	r := newRig(t, 1, sched.IOAwarePolicy{TotalNodes: 1, ThroughputLimit: 20 * pfs.GiB}, DefaultConfig())
	r.ctl.Run()
	if _, err := r.ctl.Submit(writeSpec("w8", 8, 1, 600*des.Second)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(des.TimeFromSeconds(300))
	if _, ok := r.svc.Estimate("w8"); !ok {
		t.Fatal("estimator must learn from the completed job")
	}
	est, _ := r.svc.Estimate("w8")
	if est.Rate <= 0 || est.Runtime <= 0 {
		t.Fatalf("estimate: %+v", est)
	}
}

func TestDeclaredRatesMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseDeclaredRates = true
	r := newRig(t, 2, sched.IOAwarePolicy{TotalNodes: 2, ThroughputLimit: 10 * pfs.GiB}, cfg)
	// Two jobs declaring 8 GiB/s each: the 10 GiB/s license pool admits
	// only one at a time even though both fit by nodes.
	a := writeSpec("wa", 1, 40, 600*des.Second)
	a.DeclaredRate = 8 * pfs.GiB
	b := writeSpec("wb", 1, 40, 600*des.Second)
	b.DeclaredRate = 8 * pfs.GiB
	ra, _ := r.ctl.Submit(a)
	rb, _ := r.ctl.Submit(b)
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(2))
	if ra.State != StateRunning {
		t.Fatal("first declared job must start")
	}
	if rb.State == StateRunning {
		t.Fatal("second declared job must be license-blocked")
	}
	r.eng.Run(des.TimeFromSeconds(3600))
	if ra.State != StateCompleted || rb.State != StateCompleted {
		t.Fatalf("both must finish: %v %v", ra.State, rb.State)
	}
}

func TestControllerRunTwicePanics(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	r.ctl.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double Run must panic")
		}
	}()
	r.ctl.Run()
}

func TestStopHaltsScheduling(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(1))
	r.ctl.Stop()
	rec, _ := r.ctl.Submit(sleepSpec("never", 10*des.Second, 60*des.Second))
	r.eng.Run(des.TimeFromSeconds(600))
	_ = rec
	if r.ctl.DoneCount() != 0 {
		t.Fatal("stopped controller must not schedule")
	}
}

func TestMultiNodeJobs(t *testing.T) {
	r := newRig(t, 4, sched.NodePolicy{TotalNodes: 4}, DefaultConfig())
	spec := JobSpec{Name: "mpi", Nodes: 3, Limit: 100 * des.Second,
		Program: cluster.WriteProgram{Threads: 6, BytesPerThread: pfs.GiB}}
	rec, err := r.ctl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(600))
	if rec.State != StateCompleted || len(rec.Nodes) != 3 {
		t.Fatalf("multi-node job: %v nodes=%v", rec.State, rec.Nodes)
	}
}

func TestSchedulerRoundsCount(t *testing.T) {
	r := newRig(t, 1, sched.NodePolicy{TotalNodes: 1}, DefaultConfig())
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(95))
	if r.ctl.Rounds() < 3 {
		t.Fatalf("expected ≥3 rounds in 95s at 30s interval, got %d", r.ctl.Rounds())
	}
	if r.ctl.Policy().Name() != "default" {
		t.Fatal("policy accessor")
	}
	if r.ctl.Cluster() != r.cl {
		t.Fatal("cluster accessor")
	}
}

// TestRandomizedWorkloadStress drives the controller with random job mixes
// under every policy and checks global invariants: every job ends, node
// accounting balances, and timestamps are ordered.
func TestRandomizedWorkloadStress(t *testing.T) {
	policies := []sched.Policy{
		sched.NodePolicy{TotalNodes: 8},
		sched.IOAwarePolicy{TotalNodes: 8, ThroughputLimit: 10 * pfs.GiB},
		sched.AdaptivePolicy{TotalNodes: 8, ThroughputLimit: 10 * pfs.GiB, TwoGroup: true},
	}
	for pi, policy := range policies {
		rng := des.NewRNG(uint64(pi+1), "stress")
		r := newRig(t, 8, policy, DefaultConfig())
		n := 60
		for i := 0; i < n; i++ {
			var spec JobSpec
			switch rng.IntN(3) {
			case 0:
				spec = sleepSpec("s", des.Duration(10+rng.IntN(300))*des.Second, 600*des.Second)
			case 1:
				spec = writeSpec("w", 1+rng.IntN(8), 1+float64(rng.IntN(20)), 1200*des.Second)
			default:
				spec = JobSpec{Name: "multi", Nodes: 1 + rng.IntN(4), Limit: 900 * des.Second,
					Program: cluster.SleepProgram{D: des.Duration(10+rng.IntN(200)) * des.Second}}
			}
			if err := r.ctl.SubmitAt(spec, des.TimeFromSeconds(float64(rng.IntN(600)))); err != nil {
				t.Fatal(err)
			}
		}
		r.ctl.Run()
		for r.ctl.DoneCount() < n && r.eng.Step() {
		}
		if r.ctl.DoneCount() != n {
			t.Fatalf("policy %s: %d of %d jobs finished", policy.Name(), r.ctl.DoneCount(), n)
		}
		if r.cl.FreeNodes() != 8 || r.cl.RunningCount() != 0 {
			t.Fatalf("policy %s: node accounting leaked: free=%d", policy.Name(), r.cl.FreeNodes())
		}
		for _, j := range r.ctl.DoneJobs() {
			if !(j.Submit <= j.Start && j.Start <= j.End) {
				t.Fatalf("policy %s: job %s timestamps disordered: %v %v %v",
					policy.Name(), j.ID, j.Submit, j.Start, j.End)
			}
			if j.Runtime() > j.Spec.Limit+des.Second {
				t.Fatalf("policy %s: job %s ran %v past its limit %v",
					policy.Name(), j.ID, j.Runtime(), j.Spec.Limit)
			}
		}
	}
}

// TestSteadyRoundAllocatesNothing holds the controller's round to zero
// allocations over an unchanged queue, at 1k and at 10k queued jobs,
// whether the round re-plans the whole queue or the session proves it
// quiet: the views, the queue order, the session's profiles, the engine's
// decisions and the diagnostics map are all kept across rounds.
func TestSteadyRoundAllocatesNothing(t *testing.T) {
	const nodes = 16
	for _, queued := range []int{1000, 10000} {
		policy := sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: 10 * pfs.GiB, TwoGroup: true}
		r := newRig(t, nodes, policy, DefaultConfig())
		r.ctl.drv.CheckSkippedRounds(nil) // the cross-check's fresh round allocates: count instead
		// A blocker holds every node, so no queued job can start.
		blocker := JobSpec{Name: "blocker", Nodes: nodes, Limit: 100 * des.Hour, Program: cluster.SleepProgram{D: 100 * des.Hour}}
		if _, err := r.ctl.Submit(blocker); err != nil {
			t.Fatal(err)
		}
		r.ctl.scheduleRound()
		for i := 0; i < queued; i++ {
			if _, err := r.ctl.Submit(sleepSpec("queued", 60*des.Second, 120*des.Second)); err != nil {
				t.Fatal(err)
			}
		}
		r.ctl.scheduleRound() // admits and plans the queue
		if r.ctl.RunningCount() != 1 || r.ctl.drv.Planned() != queued {
			t.Fatalf("%d running, %d planned; want the blocker and %d", r.ctl.RunningCount(), r.ctl.drv.Planned(), queued)
		}
		replan := testing.AllocsPerRun(3, func() {
			r.ctl.drv.Changed()
			r.ctl.scheduleRound()
		})
		rounds := r.ctl.Rounds()
		quietBefore, _ := SkippedRounds(r.ctl)
		quiet := testing.AllocsPerRun(3, func() { r.ctl.scheduleRound() })
		if replan != 0 || quiet != 0 {
			t.Errorf("%d queued: a re-planning round allocates %v times, a quiet one %v", queued, replan, quiet)
		}
		quietRounds, _ := SkippedRounds(r.ctl)
		if quietRounds -= quietBefore; quietRounds != 4 || r.ctl.Rounds() != rounds+4 || r.ctl.drv.Planned() != queued || r.ctl.Diagnostics() == nil {
			t.Fatalf("%d queued: %d of %d rounds quiet, %d planned, diagnostics %v", queued, quietRounds, r.ctl.Rounds()-rounds, r.ctl.drv.Planned(), r.ctl.Diagnostics())
		}
	}
}

// TestEstimateChangeReachesTheNextRound changes a running job's class
// estimate between rounds, with no job starting, ending or arriving: the
// next round must see it, re-book the running job's rate and start the
// job the old estimate held back.
func TestEstimateChangeReachesTheNextRound(t *testing.T) {
	r := newRig(t, 2, sched.IOAwarePolicy{TotalNodes: 2, ThroughputLimit: 10 * pfs.GiB}, DefaultConfig())
	r.svc.Pretrain("hog", 8*pfs.GiB, 3000*des.Second)
	r.svc.Pretrain("small", 6*pfs.GiB, 60*des.Second)
	hog, _ := r.ctl.Submit(sleepSpec("hog", 3000*des.Second, 4000*des.Second))
	small, _ := r.ctl.Submit(sleepSpec("small", 60*des.Second, 600*des.Second))
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(300))
	if hog.State != StateRunning || small.State != StatePending {
		t.Fatalf("at 300 s: hog %v, small %v; want small held back by hog's 8 GiB/s", hog.State, small.State)
	}
	quiet, _ := SkippedRounds(r.ctl)
	r.svc.Pretrain("hog", 3*pfs.GiB, 3000*des.Second)
	r.eng.Run(des.TimeFromSeconds(400))
	if small.State == StatePending {
		t.Fatal("small still pending after hog's estimate fell to 3 GiB/s")
	}
	if small.Start > des.TimeFromSeconds(330) {
		t.Errorf("small started at %v, want the first round after the change", small.Start)
	}
	if quiet == 0 {
		t.Error("no quiet round before the change")
	}
}

// TestFairShareDecayReordersWithoutEvents lets a user's fair-share usage
// decay while nothing else happens. Bob's wide job heads the queue,
// waiting for the blocker, and Alice's narrow job, submitted first, waits
// behind its reservation. Once Alice's usage has decayed to a zero
// priority penalty, her job ties with Bob's, wins on submit order and
// starts on the free node: a priority plugin's rounds are never skipped.
func TestFairShareDecayReordersWithoutEvents(t *testing.T) {
	m, _ := NewMultifactorPriority(0, 0, 100, des.Hour)
	cfg := DefaultConfig()
	cfg.Priority = m
	r := newRig(t, 2, sched.NodePolicy{TotalNodes: 2}, cfg)
	early := sleepSpec("alice0", 600*des.Second, 900*des.Second)
	early.User = "alice"
	_, _ = r.ctl.Submit(early)
	_, _ = r.ctl.Submit(sleepSpec("blocker", 10*des.Hour, 11*des.Hour))
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(700))
	narrow := sleepSpec("alice1", 60*des.Second, 12*des.Hour)
	narrow.User = "alice"
	narrowRec, _ := r.ctl.Submit(narrow)
	wide := sleepSpec("bob", 60*des.Second, des.Hour)
	wide.User, wide.Nodes = "bob", 2
	_, _ = r.ctl.Submit(wide)
	r.eng.Run(des.TimeFromSeconds(1000))
	if narrowRec.State != StatePending {
		t.Fatalf("alice1 %v at 1000 s, want pending behind bob's reservation", narrowRec.State)
	}
	r.eng.Run(des.TimeFromSeconds(9 * 3600))
	if narrowRec.State == StatePending {
		t.Fatal("alice1 still pending after her usage decayed")
	}
	// The 1/6 node-hour charged at 600 s, at weight 100, truncates to a
	// zero penalty after log2(100/6) ≈ 4.06 half-lives.
	if lo, hi := des.TimeFromSeconds(600+4.05*3600), des.TimeFromSeconds(600+4.1*3600); narrowRec.Start < lo || narrowRec.Start > hi {
		t.Errorf("alice1 started at %v, want between %v and %v", narrowRec.Start, lo, hi)
	}
}

// TestRunningSetInIDOrder starts jobs out of ID order (by priority, the
// last submitted first) and checks that the running set reads in ID
// order, as the recorder's float sums need.
func TestRunningSetInIDOrder(t *testing.T) {
	r := newRig(t, 3, sched.NodePolicy{TotalNodes: 3}, DefaultConfig())
	for _, prio := range []int64{0, 1, 2} {
		spec := sleepSpec("s", 1000*des.Second, 2000*des.Second)
		spec.Priority = prio
		_, _ = r.ctl.Submit(spec)
	}
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(10))
	var ids []string
	for _, j := range r.ctl.AppendRunningJobs(nil) {
		ids = append(ids, j.ID)
	}
	if want := []string{"job-00001", "job-00002", "job-00003"}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("running set %v, want %v", ids, want)
	}
}
