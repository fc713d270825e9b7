package slurmconf

import (
	"strings"
	"testing"

	"wasched/internal/core"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
)

func TestParseFullConfig(t *testing.T) {
	conf := `
# cluster
ClusterName=stria
Nodes=16
Seed=42

SchedulerPolicy=adaptive
ThroughputLimit=20GiB
TwoGroupQoSFraction=0.6
SchedulerParameters=bf_interval=15,bf_max_job_test=50,bf_max_job_start=1

PFSVolumes=28
PFSVolumeBandwidth=0.5GiB
PFSStreamCap=512MiB
PFSServerCap=10GiB
PFSCongestionKnee=30
PFSCongestionPerStream=0.05
PFSNoiseSigma=0.1

SampleInterval=2
AggregateInterval=5
ThroughputWindow=60
EstimatorAlpha=0.3
UseDeclaredRates=true
`
	cfg, err := Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 16 || cfg.Seed != 42 {
		t.Fatalf("cluster: %+v", cfg)
	}
	if cfg.Scheduler.Policy != "adaptive" || cfg.Scheduler.ThroughputLimit != 20*pfs.GiB {
		t.Fatalf("scheduler: %+v", cfg.Scheduler)
	}
	if cfg.Scheduler.QoSFraction != 0.6 {
		t.Fatal("qos fraction")
	}
	if cfg.Control.SchedInterval != 15*des.Second ||
		cfg.Control.Options.MaxJobTest != 50 ||
		cfg.Control.Options.BackfillMax != 1 {
		t.Fatalf("scheduler parameters: %+v", cfg.Control)
	}
	if cfg.FS.Volumes != 28 || cfg.FS.VolumeBandwidth != 0.5*pfs.GiB ||
		cfg.FS.StreamCap != 512*(1<<20) || cfg.FS.ServerCap != 10*pfs.GiB {
		t.Fatalf("fs: %+v", cfg.FS)
	}
	if cfg.FS.CongestionKnee != 30 || cfg.FS.CongestionPerStream != 0.05 || cfg.FS.NoiseSigma != 0.1 {
		t.Fatalf("fs congestion: %+v", cfg.FS)
	}
	if cfg.Monitor.SampleInterval != 2*des.Second || cfg.Monitor.AggregateInterval != 5*des.Second {
		t.Fatalf("monitor: %+v", cfg.Monitor)
	}
	if cfg.Analytics.ThroughputWindow != 60*des.Second || cfg.Analytics.Alpha != 0.3 {
		t.Fatalf("analytics: %+v", cfg.Analytics)
	}
	if !cfg.Control.UseDeclaredRates {
		t.Fatal("declared rates")
	}
	// The parsed config must actually build.
	if _, err := core.NewSystem(cfg); err != nil {
		t.Fatalf("config does not build: %v", err)
	}
}

func TestParseDefaultsUntouched(t *testing.T) {
	cfg, err := Parse(strings.NewReader("# empty\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig()
	if cfg.Nodes != def.Nodes || cfg.FS.Volumes != def.FS.Volumes {
		t.Fatal("empty file must leave defaults")
	}
}

// TestParsePolicyNames reads SchedulerPolicy in any case and under the
// slurm.conf aliases into the registry name.
func TestParsePolicyNames(t *testing.T) {
	cases := map[string]string{
		"default":        "default",
		"easy":           "easy",
		"io-aware":       "io-aware",
		"IOAware":        "io-aware",
		"ioaware":        "io-aware",
		"adaptive":       "adaptive",
		"adaptive-naive": "adaptive-naive",
		"AdaptiveNaive":  "adaptive-naive",
		"adaptivenaive":  "adaptive-naive",
		"Plan":           "plan",
		"BB-IO-AWARE":    "bb-io-aware",
		"TBF":            "tbf",
		"Tbf-Straggler":  "tbf-straggler",
	}
	for name, want := range cases {
		cfg, err := Parse(strings.NewReader("SchedulerPolicy=" + name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Scheduler.Policy != want {
			t.Fatalf("%s → %q, want %q", name, cfg.Scheduler.Policy, want)
		}
	}
}

// Every policy the registry knows is reachable from slurm.conf under the
// name sched.PolicyNames gives it (and wasim's -policy accepts), in lower
// and upper case.
func TestParseEveryPolicyKind(t *testing.T) {
	names := sched.PolicyNames()
	if len(names) < 9 {
		t.Fatalf("only %d policy names: %v", len(names), names)
	}
	for _, name := range names {
		for _, v := range []string{name, strings.ToUpper(name)} {
			cfg, err := Parse(strings.NewReader("SchedulerPolicy=" + v))
			if err != nil {
				t.Fatalf("%s: %v", v, err)
			}
			if cfg.Scheduler.Policy != name {
				t.Fatalf("%s → %q, want %q", v, cfg.Scheduler.Policy, name)
			}
		}
	}
}

// TestPolicyRegistry holds every registry name to the policy it builds
// and to the system's refusal of a missing limit or burst-buffer pool.
func TestPolicyRegistry(t *testing.T) {
	want := map[string]string{
		"default":        "default",
		"easy":           "default", // the node policy at BackfillMax = EASY
		"io-aware":       "io-aware",
		"adaptive":       "adaptive",
		"adaptive-naive": "adaptive-naive",
		"plan":           "plan",
		"bb-io-aware":    "bb+io-aware",
		"tbf":            "tbf",
		"tbf-straggler":  "tbf-straggler",
	}
	needsLimit := map[string]bool{"io-aware": true, "adaptive": true, "adaptive-naive": true, "bb-io-aware": true}
	needsBB := map[string]bool{"plan": true, "bb-io-aware": true}
	names := sched.PolicyNames()
	if len(names) != len(want) {
		t.Fatalf("registry lists %v, want the %d names of %v", names, len(want), want)
	}
	full := sched.PolicyParams{Nodes: 15, Limit: 20 * pfs.GiB, BBCapacity: 64 * pfs.GiB}
	for _, name := range names {
		p, err := sched.NewPolicy(name, full)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != want[name] {
			t.Fatalf("%s builds %q, want %q", name, p.Name(), want[name])
		}
		// The system refuses a policy whose limit or pool is missing.
		cfg := core.DefaultConfig()
		cfg.Scheduler = core.SchedulerConfig{Policy: name, ThroughputLimit: full.Limit}
		cfg.BB.CapacityBytes = full.BBCapacity
		cfg.TBF.CapacityBytesPerSec = 10 * pfs.GiB
		if _, err := core.NewSystem(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		noLimit, noBB := cfg, cfg
		noLimit.Scheduler.ThroughputLimit = 0
		noBB.BB.CapacityBytes = 0
		_, limitErr := core.NewSystem(noLimit)
		_, bbErr := core.NewSystem(noBB)
		if (limitErr != nil) != needsLimit[name] {
			t.Fatalf("%s without a limit: err = %v", name, limitErr)
		}
		if (bbErr != nil) != needsBB[name] {
			t.Fatalf("%s without a BB pool: err = %v", name, bbErr)
		}
	}
	if _, err := sched.NewPolicy("lazy", full); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown name: err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"NotAKey=1",
		"Nodes",                // no '='
		"Nodes=zero",           // bad int
		"Nodes=0",              // non-positive
		"Seed=minus",           //
		"SchedulerPolicy=lazy", //
		"ThroughputLimit=fast",
		"TwoGroupQoSFraction=2",
		"SchedulerParameters=bf_interval",         // no value
		"SchedulerParameters=bf_interval=0",       // non-positive
		"SchedulerParameters=bf_max_job_test=-1",  //
		"SchedulerParameters=bf_max_job_start=-1", //
		"SchedulerParameters=bf_magic=1",          // unknown
		"PFSVolumes=-2",
		"PFSVolumeBandwidth=??",
		"PFSStreamCap=-1GiB",
		"PFSServerCap=x",
		"PFSCongestionKnee=-1",
		"PFSCongestionPerStream=-1",
		"PFSNoiseSigma=9",
		"SampleInterval=-1",
		"AggregateInterval=frog",
		"ThroughputWindow=-2",
		"EstimatorAlpha=0",
		"UseDeclaredRates=possibly",
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("line %q must fail", line)
		}
	}
}

func TestParseByteSuffixes(t *testing.T) {
	cases := map[string]float64{
		"ThroughputLimit=1GiB":       pfs.GiB,
		"ThroughputLimit=2048MiB":    2 * pfs.GiB,
		"ThroughputLimit=1024KiB":    1 << 20,
		"ThroughputLimit=1000000":    1e6,
		"ThroughputLimit=0.5GiB":     pfs.GiB / 2,
		"ThroughputLimit= 15GiB ":    15 * pfs.GiB,
		"throughputlimit=15gib":      15 * pfs.GiB, // case-insensitive
		"ThroughputLimit=15GiB # hi": 15 * pfs.GiB, // trailing comment
	}
	for line, want := range cases {
		cfg, err := Parse(strings.NewReader(line))
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if cfg.Scheduler.ThroughputLimit != want {
			t.Fatalf("%q → %v, want %v", line, cfg.Scheduler.ThroughputLimit, want)
		}
	}
}

func TestParseReportsLineNumbers(t *testing.T) {
	_, err := Parse(strings.NewReader("Nodes=15\n\nBogus=1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error must carry the line number: %v", err)
	}
}

func TestParsePriorityKeys(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`
PriorityWeightAge=10
PriorityWeightJobSize=2
PriorityWeightFairshare=100
PriorityDecayHalfLife=3600
`))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := cfg.Control.Priority.(*slurm.MultifactorPriority)
	if !ok {
		t.Fatalf("priority plugin: %T", cfg.Control.Priority)
	}
	if m.AgeWeight != 10 || m.SizeWeight != 2 || m.FairShareWeight != 100 || m.HalfLife != des.Hour {
		t.Fatalf("weights: %+v", m)
	}
	// A single key enables the plugin with defaults for the others.
	cfg, err = Parse(strings.NewReader("PriorityWeightAge=5"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Control.Priority == nil {
		t.Fatal("single priority key must enable the plugin")
	}
	// No keys → no plugin.
	cfg, _ = Parse(strings.NewReader("Nodes=15"))
	if cfg.Control.Priority != nil {
		t.Fatal("no priority keys must leave the plugin nil")
	}
	for _, bad := range []string{
		"PriorityWeightAge=-1",
		"PriorityWeightJobSize=x",
		"PriorityWeightFairshare=-2",
		"PriorityDecayHalfLife=0",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

func TestParsePreemptionAndRobustnessKeys(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`
PreemptMode=requeue
PreemptExemptTime=1800
PreemptPriorityGap=50
RateQuantile=0.9
LDMSRetention=7200
`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Control.Preemption.Enabled ||
		cfg.Control.Preemption.MaxStarvation != 1800*des.Second ||
		cfg.Control.Preemption.PriorityGap != 50 {
		t.Fatalf("preemption: %+v", cfg.Control.Preemption)
	}
	if cfg.Control.RateQuantile != 0.9 {
		t.Fatal("rate quantile")
	}
	if cfg.Monitor.Retention != 7200*des.Second {
		t.Fatal("retention")
	}
	cfg, _ = Parse(strings.NewReader("PreemptMode=off"))
	if cfg.Control.Preemption.Enabled {
		t.Fatal("off")
	}
	for _, bad := range []string{
		"PreemptMode=sometimes",
		"PreemptExemptTime=0",
		"PreemptPriorityGap=-1",
		"RateQuantile=2",
		"LDMSRetention=x",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

// NaN and ±Inf parse as floats and pass every ordering check, so each
// numeric key must reject them explicitly.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, line := range []string{
		"PriorityWeightAge=NaN", "RateQuantile=NaN", "TwoGroupQoSFraction=NaN",
		"PFSCongestionPerStream=Inf", "PFSNoiseSigma=NaN", "EstimatorAlpha=NaN",
		"ThroughputLimit=NaN", "ThroughputLimit=1e300GiB", "SampleInterval=NaN",
		"LDMSRetention=+Inf", "PreemptExemptTime=1e300",
	} {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("%s: accepted", line)
		}
	}
}
