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

// TestPolicyKindString holds the names SchedulerConfig.Policy takes: the
// registry lists the paper's policies and the burst-buffer ones in a
// fixed order, and an empty name is the default policy.
func TestPolicyKindString(t *testing.T) {
	want := []string{"default", "easy", "io-aware", "adaptive", "adaptive-naive", "plan", "bb-io-aware", "tbf", "tbf-straggler"}
	if got := sched.PolicyNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("PolicyNames = %v, want %v", got, want)
	}
	sys, err := NewSystem(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Controller.Policy().Name(); got != "default" {
		t.Fatalf("empty policy name builds %q, want default", got)
	}
}

// TestParsePolicyKindRoundTrips builds a system under every registry name
// in upper case and under the slurm.conf aliases: each gets the policy
// its canonical name builds. An unknown name's error quotes it.
func TestParsePolicyKindRoundTrips(t *testing.T) {
	build := func(name string) string {
		t.Helper()
		cfg := quietConfig()
		cfg.Scheduler = SchedulerConfig{Policy: name, ThroughputLimit: 20 * pfs.GiB}
		cfg.BB.CapacityBytes = 64 * pfs.GiB
		cfg.TBF.CapacityBytesPerSec = 10 * pfs.GiB
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sys.Controller.Policy().Name()
	}
	spellings := map[string]string{"IOAware": "io-aware", "adaptivenaive": "adaptive-naive", "TBF-Straggler": "tbf-straggler"}
	for _, name := range sched.PolicyNames() {
		spellings[strings.ToUpper(name)] = name
	}
	for spelling, name := range spellings {
		if got, want := build(spelling), build(name); got != want {
			t.Fatalf("%s builds %q, want %q as %s does", spelling, got, want, name)
		}
		if spec, err := sched.LookupPolicy(spelling); err != nil || spec.Name != name {
			t.Fatalf("LookupPolicy(%q) = %q, %v; want %q", spelling, spec.Name, err, name)
		}
	}
	if _, err := sched.LookupPolicy("lazy"); err == nil || !strings.Contains(err.Error(), `"lazy"`) {
		t.Fatalf("unknown name: err = %v", err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("zero nodes must fail")
	}
	for _, name := range []string{"io-aware", "adaptive", "adaptive-naive", "bb-io-aware"} {
		cfg = DefaultConfig()
		cfg.Scheduler.Policy = name // no limit
		cfg.BB.CapacityBytes = 64 * pfs.GiB
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("%s without limit must fail", name)
		}
	}
	for _, name := range []string{"plan", "bb-io-aware", "default"} {
		cfg = DefaultConfig()
		cfg.Scheduler = SchedulerConfig{Policy: name, ThroughputLimit: 20 * pfs.GiB, BBAware: name == "default"}
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("%s without a BB tier must fail", name)
		}
	}
	cfg = DefaultConfig()
	cfg.Scheduler.Policy = "lazy"
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), `"lazy"`) {
		t.Fatalf("unknown policy must fail, got %v", err)
	}
	cfg = DefaultConfig()
	cfg.FS.Volumes = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bad fs config must fail")
	}
	for _, name := range []string{"tbf", "tbf-straggler"} {
		cfg = DefaultConfig()
		cfg.Scheduler.Policy = name // no token layer configured
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("%s without capacity must fail", name)
		}
	}
}

// TestTBFSystemLifecycle runs a small workload under the token-bucket
// layer end to end: jobs complete, the ledger conserves tokens, and the
// recorder picks up the per-job token accounts.
func TestTBFSystemLifecycle(t *testing.T) {
	for _, kind := range []string{"tbf", "tbf-straggler"} {
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
		kind string
		want string
	}{
		{"default", "default"},
		{"easy", "default"}, // easy is the node policy with BackfillMax=1
		{"io-aware", "io-aware"},
		{"adaptive", "adaptive"},
		{"adaptive-naive", "adaptive-naive"},
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
		depth := cfg.Control.Options.BackfillMax
		if tc.kind == "easy" {
			depth = sched.EASY
		}
		if got := sys.Config().Control.Options.BackfillMax; got != depth {
			t.Fatalf("%v: BackfillMax %d, want %d", tc.kind, got, depth)
		}
	}
}

// A tbf-straggler policy turns on straggler-aware token ordering, named or
// custom; the token layer's own flag also stays on under any policy.
func TestStragglerFromPolicy(t *testing.T) {
	for _, tc := range []struct {
		name      string
		custom    sched.Policy
		flag      bool
		straggler bool
	}{
		{name: "tbf"},
		{name: "tbf-straggler", straggler: true},
		{custom: sched.TBFPolicy{TotalNodes: 15, Straggler: true}, straggler: true},
		{custom: sched.TBFPolicy{TotalNodes: 15}},
		{name: "tbf", flag: true, straggler: true},
	} {
		cfg := quietConfig()
		cfg.Scheduler = SchedulerConfig{Policy: tc.name, Custom: tc.custom}
		cfg.TBF.CapacityBytesPerSec = 10 * pfs.GiB
		cfg.TBF.Straggler = tc.flag
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Config().TBF.Straggler; got != tc.straggler {
			t.Fatalf("%+v: TBF.Straggler = %v, want %v", tc, got, tc.straggler)
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
	if err := sys.SubmitAt(workload.SleepJob(), des.TimeFromSeconds(100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll([]slurm.JobSpec{workload.WriteJob(1)}); err != nil {
		t.Fatal(err)
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
	cfg.Scheduler = SchedulerConfig{Policy: "adaptive", ThroughputLimit: 20 * pfs.GiB}
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
		cfg.Scheduler = SchedulerConfig{Policy: "io-aware", ThroughputLimit: 15 * pfs.GiB}
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
