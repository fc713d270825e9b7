package experiments

import (
	"fmt"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/trace"
)

// bbBottleneckWorkload is the grid's BB-bottlenecked scenario: a front of
// one-node jobs that each want 40% of the pool (only two fit at once, so
// ten of them serialise into five pool generations), followed by wide
// compute jobs with no BB demand at all. A BB-blind policy start-nows the
// whole BB front every round — the pool rejects all but two, but the
// round's node budget already counted them, so the wide jobs behind starve
// until the front shrinks. The plan policy reserves the un-admittable BB
// jobs at the times the pool actually frees and backfills the wide jobs
// onto the idle nodes immediately.
func bbBottleneckWorkload(seed uint64) []schedcheck.SimJob {
	rng := des.NewRNG(seed, "experiments/bb-bottleneck")
	var jobs []schedcheck.SimJob
	for i := 0; i < 12; i++ {
		jobs = append(jobs, schedcheck.SimJob{
			ID:          fmt.Sprintf("hvy-%03d", i),
			Fingerprint: "bb-heavy",
			Nodes:       1,
			Limit:       1020 * des.Second,
			Actual:      900 * des.Second,
			EstRuntime:  900 * des.Second,
			Submit:      0,
			BBBytes:     schedcheck.CorpusBBCapacity * 0.4,
		})
	}
	for i := 0; i < 20; i++ {
		jobs = append(jobs, schedcheck.SimJob{
			ID:          fmt.Sprintf("wide-%03d", i),
			Fingerprint: "compute-wide",
			Nodes:       5,
			Limit:       420 * des.Second,
			Actual:      300 * des.Second,
			EstRuntime:  300 * des.Second,
			Submit:      des.Time(30+rng.IntN(60)) * des.Time(des.Second),
		})
	}
	return jobs
}

// AblationBurstBuffer compares burst-buffer-blind and burst-buffer-aware
// scheduling on the BB-bottlenecked workload above. It runs on the replayer
// with the corpus BB pool emulated, so the grid is deterministic and cheap
// enough for the "ablations" sweep.
//
// BB-blind policies pick start-now jobs the pool then rejects: the start is
// deferred, but the round's node reservations already treated the job as
// running, so feasible work behind it waits too. The plan policy co-reserves
// compute nodes and BB space and backfills around jobs the pool cannot hold
// yet — the mean-wait column is the cost of planning blind.
func AblationBurstBuffer(seed uint64) ([]AblationRow, error) {
	const limit = Limit20
	workload := bbBottleneckWorkload(seed)
	var rows []AblationRow
	for _, cfg := range []struct {
		label  string
		policy sched.Policy
	}{
		{"default (BB-blind)", sched.NodePolicy{TotalNodes: Nodes}},
		{"io-aware 20 GiB/s (BB-blind)", sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: limit}},
		{"plan (node+BB co-reservation)", sched.PlanPolicy{TotalNodes: Nodes, BBCapacity: schedcheck.CorpusBBCapacity, ThroughputLimit: limit}},
		{"bb+io-aware (BB admission hook)", sched.BBAwarePolicy{Inner: sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: limit}, Capacity: schedcheck.CorpusBBCapacity}},
	} {
		r := schedcheck.Replay(workload, schedcheck.ReplayConfig{
			Policy:      cfg.policy,
			Nodes:       Nodes,
			Limit:       sched.ThroughputLimit(cfg.policy),
			BBCapacity:  schedcheck.CorpusBBCapacity,
			BBStageRate: schedcheck.CorpusBBStageRate,
			BBDrainRate: schedcheck.CorpusBBDrainRate,
		})
		if err := r.Check.Err(); err != nil {
			return nil, fmt.Errorf("experiments: bb ablation %s: %w", cfg.label, err)
		}
		if len(r.Jobs) != len(workload) {
			return nil, fmt.Errorf("experiments: bb ablation %s completed %d of %d jobs", cfg.label, len(r.Jobs), len(workload))
		}
		m := trace.ComputeMetrics(r.Jobs)
		rows = append(rows, AblationRow{
			Label: cfg.label,
			Result: &RunResult{
				Label:      "ablation-burstbuffer/" + cfg.label,
				Policy:     r.Policy,
				Makespan:   r.Makespan.Seconds(),
				Jobs:       len(r.Jobs),
				Sched:      m,
				Invariants: r.Check,
			},
			Extra: fmt.Sprintf("mean wait %.0fs, P95 %.0fs", m.MeanWait, m.P95Wait),
		})
	}
	return finishAblation(rows), nil
}
