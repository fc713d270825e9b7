package schedcheck

import (
	"testing"

	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/workload"
)

// TestReplayAllocationShape bounds the replay hot path's allocations: the
// bundled 10k-job trace, invariant checks off, under the four paper
// policies, the two burst-buffer policies (30% of jobs reserve 4 GiB per
// node of a 64 GiB pool) and the two token policies (the corpus token
// pool). A replay allocates one runJob per started job plus a constant;
// the token policies also hold one tbfBucket per job. A scratch slice
// built per round, or one more object per started job, fails it.
func TestReplayAllocationShape(t *testing.T) {
	const nodes = 15
	const limit = 20 * pfs.GiB
	const capacity = 64 * pfs.GiB
	plain := loadTrace10k(t, workload.DefaultSWFOptions())
	bbOpts := workload.DefaultSWFOptions()
	bbOpts.BBFraction = 0.3
	bbOpts.BBGiBPerNode = 4
	withBB := loadTrace10k(t, bbOpts)
	for _, v := range []struct {
		name   string // registry policy name
		bb     bool
		tokens bool
	}{
		{"default", false, false},
		{"io-aware", false, false},
		{"adaptive", false, false},
		{"adaptive-naive", false, false},
		{"plan", true, false},
		{"bb-io-aware", true, false},
		{"tbf", false, true},
		{"tbf-straggler", false, true},
	} {
		p, err := sched.NewPolicy(v.name, sched.PolicyParams{Nodes: nodes, Limit: limit, BBCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		jobs := plain
		cfg := ReplayConfig{
			Policy:          p,
			Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
			Nodes:           nodes,
			Limit:           sched.ThroughputLimit(p),
			MaxRounds:       1 << 30,
			SkipRoundChecks: true,
		}
		if v.bb {
			jobs = withBB
			cfg.BBCapacity = capacity
			cfg.BBStageRate = CorpusBBStageRate
			cfg.BBDrainRate = CorpusBBDrainRate
		}
		perJob := 1
		if v.tokens {
			cfg.TBFCapacity = CorpusTBFCapacity
			cfg.TBFServers = CorpusTBFServers
			perJob = 2
		}
		allocs := testing.AllocsPerRun(1, func() {
			if res := Replay(jobs, cfg); len(res.Jobs) != len(jobs) {
				t.Fatalf("%s: completed %d of %d jobs", v.name, len(res.Jobs), len(jobs))
			}
		})
		max := perJob*len(jobs) + 128
		if allocs > float64(max) {
			t.Errorf("%s: %.0f allocations replaying %d jobs, want at most %d", v.name, allocs, len(jobs), max)
		}
		t.Logf("%-14s %6.0f allocations for %d jobs (bound %d)", v.name, allocs, len(jobs), max)
	}
}
