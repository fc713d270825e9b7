package schedcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasched/internal/des"
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
							Policy:      sched.TBFPolicy{TotalNodes: nodes, Straggler: straggler},
							Options:     sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
							Nodes:       nodes,
							TBFCapacity: CorpusTBFCapacity,
							TBFServers:  CorpusTBFServers,
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
// wrong adaptive band shows: long backlogs whose heads wait for hours, and
// rounds where the adaptive target drifts while nothing else changes.
func TestReplayMatchesReferenceOnTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-job trace through every policy twice")
	}
	const nodes = 15
	const limit = 20 * pfs.GiB
	const capacity = 64 * pfs.GiB
	plain := loadTrace10k(t, workload.DefaultSWFOptions())
	bbOpts := workload.DefaultSWFOptions()
	bbOpts.BBFraction = 0.3
	bbOpts.BBGiBPerNode = 4
	withBB := loadTrace10k(t, bbOpts)
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
			t.Logf("%d of %d rounds scheduled, %d carried", fast.Scheduled, fast.Rounds, fast.Carried)
			// Carrying stays on where it applies, adaptive variants
			// included, so a change that turns it off shows here, and off
			// under the tetris+ window order, which moves with the running
			// set.
			carries := !strings.HasPrefix(v.label, "tetris+")
			if (fast.Carried > 0) != carries {
				t.Errorf("%d rounds carried, want carrying %v", fast.Carried, carries)
			}
		})
	}
}

// loadTrace10k loads the bundled 10k-job SWF trace.
func loadTrace10k(t *testing.T, opts workload.SWFOptions) []SimJob {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "swf", "synthetic-10k.swf"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := LoadSWFSimJobs(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestReplayMatchesReferenceUnderGuard holds carried rounds to the oracle
// where the measured-throughput guard books: on the 10k trace every third
// job reports no rate estimate against its true rate, and a 3 GiB/s limit
// makes the unexplained throughput matter. Every third job after those
// over-estimates its rate twofold, so a start can also explain away what
// the guard booked. A carried round must refuse whenever the guard booked
// in the last round or books now.
func TestReplayMatchesReferenceUnderGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 10k-job trace twice per policy")
	}
	const nodes = 15
	const limit = 3 * pfs.GiB
	jobs := loadTrace10k(t, workload.DefaultSWFOptions())
	for i := range jobs {
		switch i % 3 {
		case 0:
			jobs[i].EstRate = 0
		case 1:
			jobs[i].EstRate = 2 * jobs[i].Rate
		}
	}
	for _, policy := range []sched.Policy{
		sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit},
		sched.PlanPolicy{TotalNodes: nodes, BBCapacity: 64 * pfs.GiB, ThroughputLimit: limit},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := ReplayConfig{
				Policy:    policy,
				Options:   sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
				Nodes:     nodes,
				Limit:     limit,
				MaxRounds: 200000,
			}
			fast := Replay(jobs, cfg)
			got, want := scheduleDigest(fast), scheduleDigest(replayReference(jobs, cfg))
			if got != want {
				t.Fatalf("incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
					clipDigest(got), clipDigest(want))
			}
			t.Logf("%d of %d rounds scheduled, %d carried", fast.Scheduled, fast.Rounds, fast.Carried)
		})
	}
}

// TestReplayMatchesReferenceOnDeepWindow holds carried rounds to the
// oracle where the queue is deeper than the examined window and mixes
// priorities: jobs behind the window move into it as others start, and
// high-priority arrivals land inside the part of the queue the last
// round planned, which a carried round cannot absorb.
func TestReplayMatchesReferenceOnDeepWindow(t *testing.T) {
	const nodes = 15
	const limit = 20 * pfs.GiB
	var buf bytes.Buffer
	gen := workload.SWFGenConfig{Jobs: 3000, Seed: 4, Nodes: nodes, CoresPerNode: 56, Utilization: 0.95}
	if err := workload.WriteSyntheticSWF(&buf, gen); err != nil {
		t.Fatal(err)
	}
	jobs, _, err := LoadSWFSimJobs(&buf, workload.DefaultSWFOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Priority = int64(i % 3)
	}
	for _, policy := range []sched.Policy{
		sched.NodePolicy{TotalNodes: nodes},
		sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit},
		sched.PlanPolicy{TotalNodes: nodes, BBCapacity: 64 * pfs.GiB, ThroughputLimit: limit},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := ReplayConfig{
				Policy:  policy,
				Options: sched.Options{MaxJobTest: 20},
				Nodes:   nodes,
				Limit:   limit,
			}
			if _, ok := policy.(sched.NodePolicy); ok {
				cfg.Limit = 0
			}
			fast := Replay(jobs, cfg)
			got, want := scheduleDigest(fast), scheduleDigest(replayReference(jobs, cfg))
			if got != want {
				t.Fatalf("incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
					clipDigest(got), clipDigest(want))
			}
			if fast.Carried == 0 {
				t.Error("no round carried: the trace no longer exercises carrying")
			}
			t.Logf("%d of %d rounds scheduled, %d carried", fast.Scheduled, fast.Rounds, fast.Carried)
		})
	}
}

// TestReplayMatchesReferenceOnBandEdges holds the adaptive quiet band to
// the oracle on generated traces where R̃' drifts across the value of an
// AT segment between two otherwise idle rounds. The 10k trace and the
// corpus miss a band that is too wide (one that ignores the least AT
// value found above R̃'); these two traces catch it under both adaptive
// variants.
func TestReplayMatchesReferenceOnBandEdges(t *testing.T) {
	const nodes = 15
	const limit = 20 * pfs.GiB
	for _, seed := range []uint64{2, 3} {
		var buf bytes.Buffer
		gen := workload.SWFGenConfig{Jobs: 3000, Seed: seed, Nodes: nodes, CoresPerNode: 56, Utilization: 0.7}
		if err := workload.WriteSyntheticSWF(&buf, gen); err != nil {
			t.Fatal(err)
		}
		jobs, _, err := LoadSWFSimJobs(&buf, workload.DefaultSWFOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, twoGroup := range []bool{true, false} {
			policy := sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: twoGroup}
			t.Run(fmt.Sprintf("%s-seed%d", policy.Name(), seed), func(t *testing.T) {
				t.Parallel()
				cfg := ReplayConfig{
					Policy:  policy,
					Options: sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
					Nodes:   nodes,
					Limit:   limit,
				}
				fast := Replay(jobs, cfg)
				got, want := scheduleDigest(fast), scheduleDigest(replayReference(jobs, cfg))
				if got != want {
					t.Fatalf("incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
						clipDigest(got), clipDigest(want))
				}
				t.Logf("%d of %d rounds scheduled, %d carried", fast.Scheduled, fast.Rounds, fast.Carried)
			})
		}
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

// TestReplayIdleStretches holds the empty-queue clock jump to the oracle:
// long stretches with nothing queued, BB drains that end in another order
// than the jobs did, and a replay that reaches MaxRounds while its queue
// is empty. The starved replay reports the job it leaves running.
func TestReplayIdleStretches(t *testing.T) {
	const nodes = 4
	minutes := func(m int64) des.Duration { return des.Duration(m) * des.Minute }
	jobs := []SimJob{
		// a's 3 GiB drain outlasts b's, though a ends first.
		{ID: "a", Nodes: 2, Limit: minutes(20), Actual: minutes(10), Submit: 0, BBBytes: 3 * pfs.GiB},
		{ID: "b", Nodes: 2, Limit: minutes(30), Actual: minutes(15) + des.Duration(7*des.Second), Submit: 45 * des.Time(des.Second), BBBytes: pfs.GiB / 3},
		{ID: "c", Nodes: 4, Limit: minutes(60), Actual: minutes(1), Submit: 5 * des.Time(des.Hour)},
		{ID: "d", Nodes: 1, Limit: 30 * des.Hour, Actual: 20 * des.Hour, Submit: 6 * des.Time(des.Hour)},
	}
	for _, tc := range []struct {
		name      string
		maxRounds int
	}{
		{"drains", 0},
		{"starved while idle", 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ReplayConfig{
				Policy:      sched.BBAwarePolicy{Inner: sched.NodePolicy{TotalNodes: nodes}, Capacity: 4 * pfs.GiB},
				Nodes:       nodes,
				BBCapacity:  4 * pfs.GiB,
				BBDrainRate: pfs.GiB / 1000,
				MaxRounds:   tc.maxRounds,
			}
			fast := Replay(jobs, cfg)
			got, want := scheduleDigest(fast), scheduleDigest(replayReference(jobs, cfg))
			if got != want {
				t.Fatalf("incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s", got, want)
			}
			if starved := tc.maxRounds > 0; starved != (len(fast.Running) == 1 && fast.Running[0].ID == "d" && fast.Running[0].Start == 6*3600) {
				t.Errorf("running at the end: %+v", fast.Running)
			}
		})
	}
}
