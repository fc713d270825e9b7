package schedcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/workload"
)

// replayVariants mirrors RunDifferential's policy set: the four paper
// policies plus the unbounded-limit baseline, on the differential corpus
// defaults (16 nodes, 20 GiB/s).
func replayVariants(nodes int, limit float64) []struct {
	label  string
	policy sched.Policy
	limit  float64
} {
	return []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{labelDefault, sched.NodePolicy{TotalNodes: nodes}, 0},
		{labelIOAware, sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, limit},
		{labelAdaptive, sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}, limit},
		{labelNaive, sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false}, limit},
		{labelInf, sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: InfLimit}, 0},
	}
}

// bbReplayVariants are the burst-buffer-aware policies that join the
// determinism check on the BB corpus kinds.
func bbReplayVariants(nodes int, limit, capacity float64) []struct {
	label  string
	policy sched.Policy
	limit  float64
} {
	return []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{labelPlan, sched.PlanPolicy{TotalNodes: nodes, BBCapacity: capacity, ThroughputLimit: limit}, limit},
		{labelBBIO, sched.BBAwarePolicy{Inner: sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, Capacity: capacity}, limit},
	}
}

// scheduleDigest renders everything observable about a replay — the
// realised schedule in completion order, the round count, the makespan and
// every invariant finding — into one canonical string, so two replays are
// byte-identical exactly when their digests are equal.
func scheduleDigest(r *ReplayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s rounds=%d makespan=%d\n", r.Policy, r.Rounds, r.Makespan)
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "job %s submit=%.9g start=%.9g end=%.9g nodes=%d\n",
			j.ID, j.Submit, j.Start, j.End, j.Nodes)
		if j.BBBytes > 0 {
			fmt.Fprintf(&b, "  bb bytes=%.9g staged=%.9g compute=%.9g drainend=%.9g drained=%.9g\n",
				j.BBBytes, j.BBStageInDone, j.BBComputeStart, j.BBDrainEnd, j.BBDrained)
		}
		if j.TBFGranted > 0 || j.TBFDelivered > 0 {
			fmt.Fprintf(&b, "  tbf granted=%.9g delivered=%.9g borrowed=%.9g lent=%.9g\n",
				j.TBFGranted, j.TBFDelivered, j.TBFBorrowed, j.TBFLent)
		}
	}
	for _, v := range r.Check.Violations {
		fmt.Fprintf(&b, "violation %s: %s\n", v.Invariant, v.Detail)
	}
	for _, w := range r.Check.Warnings {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	return b.String()
}

// TestReplayMatchesReferenceOnCorpus is the determinism guarantee behind
// the incremental-backfill optimization: over the full differential corpus
// (every workload kind × every corpus seed) and every policy variant, the
// session-based Replay must produce a byte-identical schedule — same
// starts, same completions in the same order, same violations — as the
// retained pre-optimization path (replayReference).
func TestReplayMatchesReferenceOnCorpus(t *testing.T) {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	for _, kind := range Kinds() {
		for _, seed := range CorpusSeeds() {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				workload := Generate(kind, seed, nodes, limit)
				variants := replayVariants(nodes, limit)
				if kind.HasBB() {
					variants = append(variants, bbReplayVariants(nodes, limit, CorpusBBCapacity)...)
				}
				for _, v := range variants {
					cfg := ReplayConfig{
						Policy:  v.policy,
						Options: sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
						Nodes:   nodes,
						Limit:   v.limit,
					}
					if kind.HasBB() {
						cfg.BBCapacity = CorpusBBCapacity
						cfg.BBStageRate = CorpusBBStageRate
						cfg.BBDrainRate = CorpusBBDrainRate
					}
					fast := Replay(workload, cfg)
					ref := replayReference(workload, cfg)
					got, want := scheduleDigest(fast), scheduleDigest(ref)
					if got != want {
						t.Fatalf("policy %s: incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
							v.label, clipDigest(got), clipDigest(want))
					}
				}
				if kind.HasTBF() {
					// The token layer extends job ends round by round, the
					// regime where the incremental session's reservation
					// reuse is most likely to diverge from the oracle.
					for _, straggler := range []bool{false, true} {
						cfg := ReplayConfig{
							Policy:       sched.TBFPolicy{TotalNodes: nodes, Straggler: straggler},
							Options:      sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
							Nodes:        nodes,
							TBFCapacity:  CorpusTBFCapacity,
							TBFServers:   CorpusTBFServers,
							TBFStraggler: straggler,
						}
						got := scheduleDigest(Replay(workload, cfg))
						want := scheduleDigest(replayReference(workload, cfg))
						if got != want {
							t.Fatalf("tbf(straggler=%v): incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
								straggler, clipDigest(got), clipDigest(want))
						}
					}
				}
			})
		}
	}
}

// TestReplayMatchesReferenceUnlimitedWindow re-runs a slice of the corpus
// with the whole queue examined and unlimited backfill — the regime where
// reservation state is deepest and the incremental path diverging would
// hurt most.
func TestReplayMatchesReferenceUnlimitedWindow(t *testing.T) {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	for _, kind := range Kinds() {
		workload := Generate(kind, 3, nodes, limit)
		for _, v := range replayVariants(nodes, limit) {
			cfg := ReplayConfig{Policy: v.policy, Nodes: nodes, Limit: v.limit}
			got := scheduleDigest(Replay(workload, cfg))
			want := scheduleDigest(replayReference(workload, cfg))
			if got != want {
				t.Fatalf("%s/%s: incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
					kind, v.label, clipDigest(got), clipDigest(want))
			}
		}
	}
}

// TestReplayMatchesReferenceOnTrace holds the quiet-round skip to the
// oracle at trace scale: the bundled 10k-job SWF trace through every pin
// variant, plan with a one-hour horizon and the bb+ family included. The
// corpus is too small to reach the regimes where a wrong wake time or a
// wrong adaptive key shows: long backlogs whose heads wait for hours, and
// rounds where the adaptive target drifts while nothing else changes.
func TestReplayMatchesReferenceOnTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-job trace through every policy twice")
	}
	const nodes = 15
	const limit = 20 * pfs.GiB
	const capacity = 64 * pfs.GiB
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "swf", "synthetic-10k.swf"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(opts workload.SWFOptions) []SimJob {
		jobs, _, err := LoadSWFSimJobs(bytes.NewReader(raw), opts)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	plain := load(workload.DefaultSWFOptions())
	bbOpts := workload.DefaultSWFOptions()
	bbOpts.BBFraction = 0.3
	bbOpts.BBGiBPerNode = 4
	withBB := load(bbOpts)
	for _, v := range pinVariants(nodes, limit, capacity) {
		v := v
		t.Run(v.label, func(t *testing.T) {
			t.Parallel()
			jobs := plain
			cfg := ReplayConfig{
				Policy:    v.policy,
				Options:   sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
				Nodes:     nodes,
				Limit:     v.limit,
				MaxRounds: 200000,
			}
			if v.bb {
				jobs = withBB
				cfg.BBCapacity = capacity
				cfg.BBStageRate = CorpusBBStageRate
				cfg.BBDrainRate = CorpusBBDrainRate
			}
			if strings.HasPrefix(v.label, "tbf+") {
				cfg.TBFCapacity = CorpusTBFCapacity
				cfg.TBFServers = CorpusTBFServers
			}
			fast := Replay(jobs, cfg)
			got, want := scheduleDigest(fast), scheduleDigest(replayReference(jobs, cfg))
			if got != want {
				t.Fatalf("incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
					clipDigest(got), clipDigest(want))
			}
			t.Logf("%d of %d rounds scheduled", fast.Scheduled, fast.Rounds)
		})
	}
}

// clipDigest bounds a failure dump to something readable.
func clipDigest(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "…(clipped)\n"
}
