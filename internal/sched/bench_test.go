package sched

import (
	"fmt"
	"testing"

	"wasched/internal/des"
)

func benchInput(queue int) RoundInput {
	in := RoundInput{Now: des.TimeFromSeconds(1000)}
	for i := 0; i < 15; i++ {
		j := &Job{ID: fmt.Sprintf("r%d", i), Nodes: 1, Limit: 1200 * des.Second,
			Rate: 2.5e9, StartedAt: des.TimeFromSeconds(float64(i * 10))}
		in.Running = append(in.Running, j)
	}
	for i := 0; i < queue; i++ {
		rate := 0.0
		if i%3 == 0 {
			rate = 2.5e9
		}
		in.Waiting = append(in.Waiting, &Job{
			ID: fmt.Sprintf("q%d", i), Nodes: 1, Limit: 1200 * des.Second,
			Rate: rate, EstRuntime: 60 * des.Second,
			Submit: des.Time(i),
		})
	}
	in.MeasuredThroughput = 12e9
	return in
}

// BenchmarkRoundDefault measures one backfill round of the node policy
// over a 100-job window (Slurm's bf_max_job_test default).
func BenchmarkRoundDefault(b *testing.B) {
	in := benchInput(500)
	p := NodePolicy{TotalNodes: 15}
	opt := Options{MaxJobTest: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunRound(p, in, opt)
	}
}

// BenchmarkRoundIOAware measures the two-resource round (Algorithms 2-4).
func BenchmarkRoundIOAware(b *testing.B) {
	in := benchInput(500)
	p := IOAwarePolicy{TotalNodes: 15, ThroughputLimit: 20e9}
	opt := Options{MaxJobTest: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunRound(p, in, opt)
	}
}

// BenchmarkRoundAdaptive measures the full adaptive round (Algorithms 5-7
// including the two-group split).
func BenchmarkRoundAdaptive(b *testing.B) {
	in := benchInput(500)
	p := AdaptivePolicy{TotalNodes: 15, ThroughputLimit: 20e9, TwoGroup: true}
	opt := Options{MaxJobTest: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunRound(p, in, opt)
	}
}

// BenchmarkTwoGroupSplit isolates the threshold search (Eqs. 2-3) on a
// 1550-job queue (Workload 2 size).
func BenchmarkTwoGroupSplit(b *testing.B) {
	in := benchInput(1550)
	p := AdaptivePolicy{TotalNodes: 15, ThroughputLimit: 20e9, TwoGroup: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.twoGroupSplit(in.Waiting, &splitScratch{})
	}
}
