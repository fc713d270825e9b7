package core

import (
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.FS.NoiseSigma = 0
	cfg.FS.BurstBoost = 1
	return cfg
}

func TestPolicyKindString(t *testing.T) {
	cases := map[PolicyKind]string{
		Default: "default", EASY: "easy", IOAware: "io-aware",
		Adaptive: "adaptive", AdaptiveNaive: "adaptive-naive",
		TBF: "tbf", TBFStraggler: "tbf-straggler",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if !strings.Contains(PolicyKind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}

func TestParsePolicyKindRoundTrips(t *testing.T) {
	for k := Default; k < numPolicyKinds; k++ {
		got, err := ParsePolicyKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParsePolicyKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for name, want := range map[string]PolicyKind{"IOAware": IOAware, "adaptivenaive": AdaptiveNaive, "TBF-Straggler": TBFStraggler} {
		if got, err := ParsePolicyKind(name); err != nil || got != want {
			t.Fatalf("ParsePolicyKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicyKind("lazy"); err == nil || !strings.Contains(err.Error(), `"lazy"`) {
		t.Fatalf("unknown name: err = %v", err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("zero nodes must fail")
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = IOAware // no limit
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("io-aware without limit must fail")
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = Adaptive
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("adaptive without limit must fail")
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = PolicyKind(42)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unknown policy must fail")
	}
	cfg = DefaultConfig()
	cfg.FS.Volumes = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bad fs config must fail")
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = TBF // no token layer configured
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("tbf without capacity must fail")
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = TBFStraggler
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("tbf-straggler without capacity must fail")
	}
}

// TestTBFSystemLifecycle runs a small workload under the token-bucket
// layer end to end: jobs complete, the ledger conserves tokens, and the
// recorder picks up the per-job token accounts.
func TestTBFSystemLifecycle(t *testing.T) {
	for _, kind := range []PolicyKind{TBF, TBFStraggler} {
		cfg := quietConfig()
		cfg.Scheduler.Policy = kind
		cfg.TBF.CapacityBytesPerSec = 15 * pfs.GiB
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sys.TBF == nil {
			t.Fatalf("%v: no limiter built", kind)
		}
		for i := 0; i < 4; i++ {
			sys.MustSubmit(workload.WriteJob(2))
		}
		sys.Start()
		if err := sys.RunToCompletion(50 * des.Hour); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		ledger := sys.TBF.Ledger()
		if len(ledger) != 4 {
			t.Fatalf("%v: ledger holds %d entries, want 4", kind, len(ledger))
		}
		var borrowed, lent float64
		for _, e := range ledger {
			if e.Delivered > e.Granted+1+1e-9*e.Granted {
				t.Fatalf("%v: job %s delivered %g > granted %g", kind, e.JobID, e.Delivered, e.Granted)
			}
			if e.Delivered <= 0 {
				t.Fatalf("%v: job %s delivered nothing", kind, e.JobID)
			}
			borrowed += e.Borrowed
			lent += e.Lent
		}
		if borrowed > lent+1 {
			t.Fatalf("%v: borrowed %g > lent %g", kind, borrowed, lent)
		}
		jt := sys.Recorder.Jobs()
		if len(jt) == 0 {
			t.Fatalf("%v: no job traces", kind)
		}
		granted := 0.0
		for _, j := range jt {
			granted += j.TBFGranted
		}
		if granted <= 0 {
			t.Fatalf("%v: job traces carry no token accounts", kind)
		}
	}
}

func TestPolicySelection(t *testing.T) {
	for _, tc := range []struct {
		kind PolicyKind
		want string
	}{
		{Default, "default"},
		{EASY, "default"}, // EASY is the node policy with BackfillMax=1
		{IOAware, "io-aware"},
		{Adaptive, "adaptive"},
		{AdaptiveNaive, "adaptive-naive"},
	} {
		cfg := quietConfig()
		cfg.Scheduler.Policy = tc.kind
		cfg.Scheduler.ThroughputLimit = 20 * pfs.GiB
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if got := sys.Controller.Policy().Name(); got != tc.want {
			t.Fatalf("%v: policy %q, want %q", tc.kind, got, tc.want)
		}
	}
}

func TestCustomPolicyOverride(t *testing.T) {
	cfg := quietConfig()
	cfg.Scheduler.Custom = sched.IOAwarePolicy{TotalNodes: cfg.Nodes, ThroughputLimit: pfs.GiB}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Controller.Policy().Name() != "io-aware" {
		t.Fatal("custom policy must win")
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys, err := NewSystem(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Config().Nodes != 15 {
		t.Fatal("config accessor")
	}
	rec := sys.MustSubmit(workload.SleepJob())
	if sys.Submitted() != 1 {
		t.Fatal("submitted counter")
	}
	if err := sys.SubmitAt(workload.SleepJob(), des.TimeFromSeconds(100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll([]slurm.JobSpec{workload.WriteJob(1)}); err != nil {
		t.Fatal(err)
	}
	if sys.Submitted() != 3 {
		t.Fatalf("submitted = %d", sys.Submitted())
	}
	sys.Start()
	if err := sys.RunToCompletion(10 * des.Hour); err != nil {
		t.Fatal(err)
	}
	if rec.State != slurm.StateCompleted {
		t.Fatalf("state: %v", rec.State)
	}
	if sys.Makespan() <= 0 {
		t.Fatal("makespan")
	}
	if sys.Recorder.Throughput.Len() == 0 {
		t.Fatal("recorder must have sampled")
	}
}

func TestRunToCompletionTimesOut(t *testing.T) {
	sys, err := NewSystem(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.MustSubmit(slurm.JobSpec{
		Name: "long", Nodes: 1, Limit: 10 * des.Hour,
		Program: cluster.SleepProgram{D: 5 * des.Hour},
	})
	sys.Start()
	if err := sys.RunToCompletion(des.Minute); err == nil {
		t.Fatal("must report unfinished jobs")
	}
}

func TestMustSubmitPanics(t *testing.T) {
	sys, _ := NewSystem(quietConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec must panic via MustSubmit")
		}
	}()
	sys.MustSubmit(slurm.JobSpec{Name: "bad"})
}

func TestSubmitAllStopsOnError(t *testing.T) {
	sys, _ := NewSystem(quietConfig())
	err := sys.SubmitAll([]slurm.JobSpec{workload.SleepJob(), {Name: "bad"}})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err: %v", err)
	}
}

func TestPretrainIsolated(t *testing.T) {
	cfg := quietConfig()
	cfg.Scheduler = SchedulerConfig{Policy: Adaptive, ThroughputLimit: 20 * pfs.GiB}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []slurm.JobSpec{workload.WriteJob(8), workload.SleepJob(), workload.WriteJob(8)}
	if err := sys.PretrainIsolated(specs); err != nil {
		t.Fatal(err)
	}
	est, ok := sys.Analytics.Estimate("writex8")
	if !ok || est.Rate <= 0 {
		t.Fatalf("pretrained estimate: %+v ok=%v", est, ok)
	}
	if _, ok := sys.Analytics.Estimate("sleep"); !ok {
		t.Fatal("sleep must be pretrained too")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() des.Time {
		cfg := DefaultConfig() // noise on: determinism must still hold
		cfg.Scheduler = SchedulerConfig{Policy: IOAware, ThroughputLimit: 15 * pfs.GiB}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			sys.MustSubmit(workload.WriteJob(8))
		}
		for i := 0; i < 20; i++ {
			sys.MustSubmit(workload.SleepJob())
		}
		sys.Start()
		if err := sys.RunToCompletion(100 * des.Hour); err != nil {
			t.Fatal(err)
		}
		return sys.Makespan()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same config must reproduce exactly: %v vs %v", a, b)
	}
}

func TestFeedAll(t *testing.T) {
	// A depth-bounded feeder drives the whole workload through a System,
	// as the submission and plateau ablations do.
	sys, err := NewSystem(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]slurm.JobSpec, 40)
	for i := range specs {
		specs[i] = workload.SleepJob()
	}
	if _, err := workload.StartFeeder(sys.Eng, sys.Controller, specs, 5, des.Second); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	for sys.Controller.DoneCount() < len(specs) {
		if sys.Controller.QueueLength() > 5 {
			t.Fatalf("queue %d exceeds the feeder depth", sys.Controller.QueueLength())
		}
		if !sys.Eng.Step() {
			t.Fatalf("went idle after %d of %d jobs", sys.Controller.DoneCount(), len(specs))
		}
	}
	if _, err := workload.StartFeeder(sys.Eng, sys.Controller, specs, 0, des.Second); err == nil {
		t.Fatal("bad depth must fail")
	}
}
