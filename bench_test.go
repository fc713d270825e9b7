// Package wasched_bench regenerates every figure of the paper's evaluation
// as a Go benchmark: `go test -bench=. -benchmem` runs each experiment and
// reports the measured makespans (and the relative improvements the paper
// quotes) as custom benchmark metrics.
//
// Mapping (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkFig3/*      paper Fig. 3 — Workload 1 under five schedulers
//	BenchmarkFig4        paper Fig. 4 — throughput vs concurrent write×8 jobs
//	BenchmarkFig5/*      paper Fig. 5 — Workload 2 under five schedulers
//	BenchmarkFig6        paper Fig. 6 — Workload 2 repeats, median makespans
//	BenchmarkAblation/*  the repository's additional ablations
package wasched_bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wasched/internal/des"
	"wasched/internal/experiments"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/workload"
)

// baselines caches the default-scheduler makespans so the improvement
// metrics of the other variants match the paper's "vs default" numbers
// without re-running the baseline in every sub-benchmark.
var baselines sync.Map

func baseline(b *testing.B, fig string, run func() float64) float64 {
	if v, ok := baselines.Load(fig); ok {
		return v.(float64)
	}
	v := run()
	baselines.Store(fig, v)
	return v
}

func benchFig3Variant(b *testing.B, key string) {
	b.ReportAllocs()
	base := baseline(b, "fig3", func() float64 {
		res, err := experiments.RunFig3("a", 1)
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	})
	var last *experiments.RunResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(key, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Makespan, "makespan-s")
	b.ReportMetric(100*(last.Makespan-base)/base, "vs-default-%")
	b.ReportMetric(last.MeanBusyNodes, "busy-nodes")
}

// BenchmarkFig3 regenerates the five panels of paper Fig. 3 (Workload 1,
// 720 jobs). The paper reports −10% (b), −20% (c), −26% (d) and −25% (e)
// versus the default scheduler (a).
func BenchmarkFig3(b *testing.B) {
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		b.Run(key, func(b *testing.B) { benchFig3Variant(b, key) })
	}
}

// BenchmarkFig4 regenerates paper Fig. 4: the steady-state Lustre
// throughput distribution for 0..15 concurrent write×8 jobs. It reports
// the peak median and the median at 15 jobs.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	var points []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig4Config()
		cfg.Warmup = 30 * des.Second
		cfg.Measure = 300 * des.Second
		var err error
		points, err = experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	peak, at15 := 0.0, 0.0
	for _, p := range points {
		if p.Box.Median > peak {
			peak = p.Box.Median
		}
		if p.Jobs == 15 {
			at15 = p.Box.Median
		}
	}
	b.ReportMetric(peak, "peak-GiBps")
	b.ReportMetric(at15, "at15jobs-GiBps")
}

func benchFig5Variant(b *testing.B, key string) {
	b.ReportAllocs()
	base := baseline(b, "fig5", func() float64 {
		res, err := experiments.RunFig5("a", 1)
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	})
	var last *experiments.RunResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(key, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Makespan, "makespan-s")
	b.ReportMetric(100*(last.Makespan-base)/base, "vs-default-%")
	b.ReportMetric(last.MeanBusyNodes, "busy-nodes")
}

// BenchmarkFig5 regenerates the five panels of paper Fig. 5 (Workload 2,
// 1550 jobs). The paper's medians land at −4% (b), −7% (c), −12% (d)
// versus default (a), with (e) about 3% under (c).
func BenchmarkFig5(b *testing.B) {
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		b.Run(key, func(b *testing.B) { benchFig5Variant(b, key) })
	}
}

// BenchmarkFig6 regenerates paper Fig. 6: repeated Workload 2 runs per
// configuration, reporting each configuration's median makespan change
// versus the default scheduler.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig6(experiments.Fig6Config{Repeats: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		metric := fmt.Sprintf("%s-vs-default-%%", r.Variant.Key)
		b.ReportMetric(100*r.VsBase, metric)
	}
}

// BenchmarkFarmFig6 measures the farm orchestrator's scaling on the fig6
// repeat matrix (smoke workload, 3 repeats = 15 independent simulations):
// serial execution against a GOMAXPROCS-wide worker pool. On multi-core
// hosts the parallel sub-benchmark approaches linear speedup, since the
// cells share no state; the cells/s metric makes the ratio directly
// readable. The aggregated rows are byte-identical for any worker count
// (see experiments.TestFig6FarmDeterminism).
func BenchmarkFarmFig6(b *testing.B) {
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := experiments.Fig6Config{
				Repeats:    3,
				Seed:       1,
				Experiment: "fig6-bench",
				Workload:   experiments.SmokeWorkload(),
				Farm:       experiments.FarmOptions{Workers: bench.workers},
			}
			cells := len(experiments.Fig6Cells(cfg))
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig6(cfg); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(cells*b.N)/elapsed, "cells/s")
			}
		})
	}
}

// BenchmarkAblation regenerates the repository's ablations (DESIGN.md §4):
// each sub-benchmark reports the makespan delta its mechanism produces.
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		run  func(uint64) ([]experiments.AblationRow, error)
	}{
		{"TwoGroup", experiments.AblationTwoGroup},
		{"MeasuredGuard", experiments.AblationMeasuredGuard},
		{"BackfillMax", experiments.AblationBackfillMax},
		{"Licenses", experiments.AblationLicenses},
		{"QoSFraction", experiments.AblationQoSFraction},
		{"BurstOverlap", experiments.AblationBurstOverlap},
		{"Submission", experiments.AblationSubmission},
		{"Degradation", experiments.AblationDegradation},
		{"Ordering", experiments.AblationOrdering},
		{"Plateau", experiments.AblationPlateau},
		{"Checkpoint", experiments.AblationCheckpoint},
		{"SweepLimit", experiments.SweepLimit},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var rows []experiments.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = c.run(1)
				if err != nil {
					b.Fatal(err)
				}
			}
			for i, r := range rows {
				if i == 0 {
					b.ReportMetric(r.Result.Makespan, "base-makespan-s")
					continue
				}
				b.ReportMetric(100*r.VsBase, fmt.Sprintf("row%d-vs-base-%%", i))
			}
		})
	}
}

// BenchmarkReplaySWF measures the archive-trace scheduling hot path: the
// bundled 10k-job synthetic SWF trace through the lightweight replayer
// (sched.Driver on incremental session state, invariant checks off) for each paper
// policy. The jobs/s and rounds/s metrics are the numbers `make
// bench-replay` tracks in BENCH_replay.json; the allocs/op column is the
// event-pool/backfill-churn regression guard.
func BenchmarkReplaySWF(b *testing.B) {
	f, err := workload.OpenSWF("testdata/swf/synthetic-10k.swf")
	if err != nil {
		b.Fatal(err)
	}
	opts := workload.DefaultSWFOptions()
	jobs, _, err := schedcheck.LoadSWFSimJobs(f, opts)
	//waschedlint:allow checkederr the trace is opened read-only; close cannot lose data
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 15
	limit := 20 * 1024 * 1024 * 1024.0
	for _, v := range []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{"default", sched.NodePolicy{TotalNodes: nodes}, 0},
		{"io-aware", sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, limit},
		{"adaptive", sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}, limit},
		{"adaptive-naive", sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false}, limit},
	} {
		b.Run(v.label, func(b *testing.B) {
			b.ReportAllocs()
			cfg := schedcheck.ReplayConfig{
				Policy:          v.policy,
				Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
				Nodes:           nodes,
				Limit:           v.limit,
				MaxRounds:       1 << 30,
				SkipRoundChecks: true,
			}
			var res *schedcheck.ReplayResult
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res = schedcheck.Replay(jobs, cfg)
				if len(res.Jobs) != len(jobs) {
					b.Fatalf("completed %d of %d jobs", len(res.Jobs), len(jobs))
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(len(jobs)*b.N)/elapsed, "jobs/s")
				b.ReportMetric(float64(res.Rounds*b.N)/elapsed, "rounds/s")
			}
		})
	}
}

// BenchmarkScheduling measures the wall-clock cost of the scheduler itself:
// how fast the full prototype chews through Workload 1 (720 jobs, ~6 h of
// simulated time) end to end.
func BenchmarkScheduling(b *testing.B) {
	specs := workload.Workload1()
	b.ReportAllocs()
	policy := sched.AdaptivePolicy{
		TotalNodes:      experiments.Nodes,
		ThroughputLimit: experiments.Limit20,
		TwoGroup:        true,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWorkload(
			experiments.DefaultOptions(policy, uint64(i+1)), specs, false, "bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Makespan, "sim-makespan-s")
	}
}
