package experiments

import (
	"fmt"

	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/trace"
)

// AblationTokenBucket is the head-to-head between the two bandwidth
// control planes the repository implements: central reservation (the
// paper's I/O-aware and adaptive schedulers, which budget Lustre
// bandwidth at admission time) versus decentralized client-side token
// buckets (the AdapTBF-style layer, which admits on nodes only and
// throttles at execution time), plus the straggler-aware token variant.
//
// All throttled variants get the same bandwidth budget — the corpus token
// fill capacity doubles as the central policies' R_limit — on the
// bandwidth-contended corpus workload, replayed over three consecutive
// seeds. Each row aggregates its three seeds: mean makespan, mean and P95
// queue wait, and node utilization (allocated node-seconds over the
// cluster's makespan capacity). The table quantifies the paper-adjacent
// trade: central reservation holds jobs back (wait grows, bandwidth never
// oversubscribes), tokens start jobs immediately and stretch their
// runtimes instead (utilization stays high, stragglers pay), and
// straggler-aware weighting claws back part of that stretch.
func AblationTokenBucket(seed uint64) ([]AblationRow, error) {
	const budget = schedcheck.CorpusTBFCapacity
	seeds := []uint64{seed, seed + 1, seed + 2}
	type variantCfg struct {
		label       string
		policy      sched.Policy
		tbfCapacity float64
	}
	variants := []variantCfg{
		{label: "default (unthrottled)", policy: sched.NodePolicy{TotalNodes: Nodes}},
		{label: "io-aware 10 GiB/s (central reservation)",
			policy: sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: budget}},
		{label: "adaptive 10 GiB/s (central, two-group)",
			policy: sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: budget, TwoGroup: true}},
		{label: "tbf (decentralized token buckets)",
			policy: sched.TBFPolicy{TotalNodes: Nodes}, tbfCapacity: budget},
		{label: "tbf-straggler (straggler-aware tokens)",
			policy: sched.TBFPolicy{TotalNodes: Nodes, Straggler: true}, tbfCapacity: budget},
	}
	var rows []AblationRow
	for _, v := range variants {
		var makespan, meanWait, p95Wait, util float64
		jobs := 0
		for _, s := range seeds {
			workload := schedcheck.Generate(schedcheck.KindTBFContended, s, Nodes, budget)
			r := schedcheck.Replay(workload, schedcheck.ReplayConfig{
				Policy:      v.policy,
				Nodes:       Nodes,
				Limit:       sched.ThroughputLimit(v.policy),
				TBFCapacity: v.tbfCapacity,
				TBFServers:  schedcheck.CorpusTBFServers,
			})
			if err := r.Check.Err(); err != nil {
				return nil, fmt.Errorf("experiments: tokenbucket ablation %s seed %d: %w", v.label, s, err)
			}
			if len(r.Jobs) != len(workload) {
				return nil, fmt.Errorf("experiments: tokenbucket ablation %s seed %d completed %d of %d jobs",
					v.label, s, len(r.Jobs), len(workload))
			}
			m := trace.ComputeMetrics(r.Jobs)
			mk := r.Makespan.Seconds()
			makespan += mk
			meanWait += m.MeanWait
			p95Wait += m.P95Wait
			nodeSeconds := 0.0
			for _, j := range r.Jobs {
				nodeSeconds += float64(j.Nodes) * (j.End - j.Start)
			}
			if mk > 0 {
				util += nodeSeconds / (float64(Nodes) * mk)
			}
			jobs += len(r.Jobs)
		}
		n := float64(len(seeds))
		rows = append(rows, AblationRow{
			Label: v.label,
			Result: &RunResult{
				Label:         "ablation-tokenbucket/" + v.label,
				Policy:        v.policy.Name(),
				Makespan:      makespan / n,
				Jobs:          jobs,
				MeanBusyNodes: util / n * Nodes,
				Sched:         trace.Metrics{MeanWait: meanWait / n, P95Wait: p95Wait / n},
			},
			Extra: fmt.Sprintf("mean wait %.0fs, P95 %.0fs, util %.0f%% (%d seeds)",
				meanWait/n, p95Wait/n, 100*util/n, len(seeds)),
		})
	}
	return finishAblation(rows), nil
}
