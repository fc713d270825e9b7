package schedcheck

import (
	"fmt"
	"testing"

	"wasched/internal/des"
	"wasched/internal/sched"
)

const (
	fuzzNodes = 8
	fuzzLimit = 100.0 // bytes/s: the decoded rates reach 159, past it
)

// fuzzReplay decodes a byte stream into a small replay: a header of four
// bytes picks the policy and its knobs, then every seven bytes make one
// job. The header covers what can move a round's wake time or key: the
// plan horizon, the adaptive QoS fraction, the BB pool with its stage-in
// and drain rates (on for any policy, so BB admission defers node-only
// starts too), the token layer, BackfillMax and MaxJobTest. Every job
// fits the cluster and the pool, so a replay ends well inside MaxRounds
// unless a policy starves a job.
func fuzzReplay(data []byte) ([]SimJob, ReplayConfig) {
	if len(data) < 4 {
		return nil, ReplayConfig{}
	}
	sel, opt, knob, pool := data[0], data[1], data[2], data[3]
	data = data[4:]
	cfg := ReplayConfig{
		Options:   sched.Options{BackfillMax: int(opt % 4), MaxJobTest: int(opt>>2) % 8},
		Nodes:     fuzzNodes,
		MaxRounds: 1500,
	}
	bbCap := float64(16 + 4*int(pool%16))
	if opt&0x20 != 0 {
		cfg.BBCapacity = bbCap
	}
	if opt&0x40 != 0 {
		cfg.TBFCapacity = 40
	}
	if opt&0x80 != 0 {
		cfg.TBFServers = 4
	}
	cfg.BBStageRate = []float64{0, 0.5, 2, 8}[pool>>4&3]
	cfg.BBDrainRate = []float64{0, 0.25, 1, 4}[pool>>6]

	io := sched.IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit}
	adaptive := sched.AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: true, QoSFraction: float64(knob) / 255}
	switch sel % 10 {
	case 0:
		cfg.Policy = sched.NodePolicy{TotalNodes: fuzzNodes}
	case 1:
		cfg.Policy, cfg.Limit = io, fuzzLimit
	case 2:
		cfg.Policy, cfg.Limit = adaptive, fuzzLimit
	case 3:
		cfg.Policy, cfg.Limit = sched.AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit}, fuzzLimit
	case 4:
		cfg.Policy, cfg.Limit = sched.TetrisPolicy{Inner: io, TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit}, fuzzLimit
	case 5:
		// knob: bit 0 adds the bandwidth dimension, the rest is the
		// horizon in minutes (0 = unbounded).
		p := sched.PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: bbCap, Horizon: des.Duration(knob>>1) * des.Minute}
		if knob&1 != 0 {
			p.ThroughputLimit, cfg.Limit = fuzzLimit, fuzzLimit
		}
		cfg.Policy, cfg.BBCapacity = p, bbCap
	case 6:
		cfg.Policy, cfg.BBCapacity = sched.BBAwarePolicy{Inner: sched.NodePolicy{TotalNodes: fuzzNodes}, Capacity: bbCap}, bbCap
	case 7:
		cfg.Policy, cfg.Limit, cfg.BBCapacity = sched.BBAwarePolicy{Inner: adaptive, Capacity: bbCap}, fuzzLimit, bbCap
	case 8:
		cfg.Policy = sched.TBFPolicy{TotalNodes: fuzzNodes, Straggler: knob&1 != 0}
		cfg.TBFCapacity, cfg.TBFStraggler = 40, knob&1 != 0
	default:
		cfg.Policy, cfg.Limit, cfg.TBFCapacity = sched.TBFAwarePolicy{Inner: adaptive}, fuzzLimit, 40
	}

	var jobs []SimJob
	for i := 0; len(data) >= 7 && i < 16; i++ {
		limit := des.Duration(1+data[1]%30) * des.Minute
		actual := limit * des.Duration(1+int(data[2])) / 256
		j := SimJob{
			ID:          fmt.Sprintf("f%02d", i),
			Fingerprint: "fz",
			Nodes:       1 + int(data[0])%fuzzNodes,
			Limit:       limit,
			Actual:      actual,
			Rate:        float64(data[3] % 160),
			EstRate:     float64(data[4] & 0x7f), // under- and over-estimates
			Submit:      des.Time(data[5]) * des.Time(20*des.Second),
			BBBytes:     bbCap * float64(data[6]&0x3f) / 64,
			Priority:    int64(data[6] >> 6),
		}
		if data[4]&0x80 != 0 {
			j.EstRuntime = actual
		}
		jobs = append(jobs, j)
		data = data[7:]
	}
	return jobs, cfg
}

// FuzzReplayMatchesReference holds Replay, quiet-round skip and all, to
// the every-round oracle on small random workloads: the two schedules,
// round counts and invariant findings must be byte-identical.
func FuzzReplayMatchesReference(f *testing.F) {
	jobs := []byte{
		4, 10, 200, 120, 90, 0, 40,
		2, 30, 100, 20, 140, 3, 0,
		8, 5, 255, 0, 0, 3, 200,
		3, 59, 10, 150, 20, 9, 63,
		1, 20, 128, 60, 60, 30, 10,
	}
	for sel := byte(0); sel < 10; sel++ {
		f.Add(append([]byte{sel, 0x20 | sel<<2, 0x0d, 0x5a}, jobs...))
	}
	f.Add(append([]byte{5, 0x01, 0x3d, 0x93}, jobs...)) // plan, 30 min horizon, EASY
	f.Add(append([]byte{2, 0xe6, 0x40, 0xf0}, jobs...)) // adaptive under BB and tokens
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, cfg := fuzzReplay(data)
		if len(jobs) == 0 {
			return
		}
		got := scheduleDigest(Replay(jobs, cfg))
		want := scheduleDigest(replayReference(jobs, cfg))
		if got != want {
			t.Fatalf("%s: incremental replay diverged from reference\n--- incremental ---\n%s--- reference ---\n%s",
				cfg.Policy.Name(), clipDigest(got), clipDigest(want))
		}
	})
}
