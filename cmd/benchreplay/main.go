// Command benchreplay measures the archive-trace replay throughput on the
// bundled 10k-job SWF trace under eight policies (the four paper policies,
// the burst-buffer plan and bb+io-aware, and the two token-bucket
// policies) and appends the result to BENCH_replay.json,
// the repository's performance trajectory for the scheduling hot path.
// With a previous entry present it fails (exit 1) when any policy's
// allocs/op grows past the alloc threshold (the deterministic signal) or
// its jobs/s drops past the wall-clock threshold; `make bench-replay-check`
// runs this in CI.
//
// Usage:
//
//	benchreplay [-trace testdata/swf/synthetic-10k.swf] [-out BENCH_replay.json]
//	            [-label NOTE] [-threshold 0.35] [-alloc-threshold 0.10]
//	            [-farm] [-check-only]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"wasched/internal/experiments"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/workload"
)

// PolicyBench is one policy's measured replay throughput.
type PolicyBench struct {
	JobsPerSec   float64 `json:"jobs_per_s"`
	RoundsPerSec float64 `json:"rounds_per_s"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// FarmBench is the farm orchestrator's measured cell throughput
// (BenchmarkFarmFig6 in tool form).
type FarmBench struct {
	SerialCellsPerSec   float64 `json:"serial_cells_per_s"`
	ParallelCellsPerSec float64 `json:"parallel_cells_per_s"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
}

// Entry is one point of the performance trajectory.
type Entry struct {
	Date     string                 `json:"date"`
	Label    string                 `json:"label"`
	Trace    string                 `json:"trace"`
	Jobs     int                    `json:"jobs"`
	Policies map[string]PolicyBench `json:"policies"`
	Farm     *FarmBench             `json:"farm_fig6,omitempty"`
	Note     string                 `json:"note,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		os.Exit(1)
	}
}

func run() error {
	trace := flag.String("trace", "testdata/swf/synthetic-10k.swf", "SWF trace to replay")
	out := flag.String("out", "BENCH_replay.json", "trajectory file to append to")
	label := flag.String("label", "", "label for this entry (default: git-less timestamp)")
	threshold := flag.Float64("threshold", 0.35, "max allowed fractional jobs/s regression vs the previous entry")
	allocThreshold := flag.Float64("alloc-threshold", 0.10, "max allowed fractional allocs/op growth vs the previous entry")
	farm := flag.Bool("farm", false, "also measure the farm orchestrator (BenchmarkFarmFig6; slow)")
	checkOnly := flag.Bool("check-only", false, "measure and compare but do not append")
	flag.Parse()

	load := func(opts workload.SWFOptions) ([]schedcheck.SimJob, workload.SWFQuirks, error) {
		f, err := workload.OpenSWF(*trace)
		if err != nil {
			return nil, workload.SWFQuirks{}, err
		}
		//waschedlint:allow checkederr the trace is opened read-only; close cannot lose data
		defer f.Close()
		return schedcheck.LoadSWFSimJobs(f, opts)
	}
	jobs, quirks, err := load(workload.DefaultSWFOptions())
	if err != nil {
		return err
	}
	// The burst-buffer policies replay the same trace with the synthetic
	// BB assignment of `make bbcheck`: 30% of jobs reserve 4 GiB per node.
	bbOpts := workload.DefaultSWFOptions()
	bbOpts.BBFraction = 0.3
	bbOpts.BBGiBPerNode = 4
	bbJobs, _, err := load(bbOpts)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d jobs (quirks: %s)\n", *trace, len(jobs), quirks)

	const nodes = 15
	limit := 20 * pfs.GiB
	bbCap := 64 * pfs.GiB
	entry := Entry{
		Date:     time.Now().UTC().Format("2006-01-02"),
		Label:    *label,
		Trace:    *trace,
		Jobs:     len(jobs),
		Policies: map[string]PolicyBench{},
	}
	if entry.Label == "" {
		entry.Label = "bench-replay"
	}
	withBB := func(cfg *schedcheck.ReplayConfig) {
		cfg.BBCapacity = bbCap
		cfg.BBStageRate = 2 * pfs.GiB
		cfg.BBDrainRate = 1 * pfs.GiB
	}
	// The token policies run against the corpus token pool, as `wasched
	// replay -policy tbf` defaults to.
	withTBF := func(cfg *schedcheck.ReplayConfig) {
		cfg.TBFCapacity = schedcheck.CorpusTBFCapacity
		cfg.TBFServers = schedcheck.CorpusTBFServers
	}
	for _, v := range []struct {
		name  string // registry policy name
		jobs  []schedcheck.SimJob
		setup func(*schedcheck.ReplayConfig)
	}{
		{"default", jobs, nil},
		{"io-aware", jobs, nil},
		{"adaptive", jobs, nil},
		{"adaptive-naive", jobs, nil},
		{"plan", bbJobs, withBB},
		{"bb-io-aware", bbJobs, withBB},
		{"tbf", jobs, withTBF},
		{"tbf-straggler", jobs, withTBF},
	} {
		p, err := sched.NewPolicy(v.name, sched.PolicyParams{Nodes: nodes, Limit: limit, BBCapacity: bbCap})
		if err != nil {
			return err
		}
		cfg := schedcheck.ReplayConfig{
			Policy:          p,
			Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
			Nodes:           nodes,
			Limit:           sched.ThroughputLimit(p),
			MaxRounds:       1 << 30,
			SkipRoundChecks: true,
		}
		if v.setup != nil {
			v.setup(&cfg)
		}
		// Best of three runs: scheduler throughput is what the gate
		// guards, and the minimum-noise run is the honest estimate of it
		// on shared hardware (CI runners especially).
		var pb PolicyBench
		for attempt := 0; attempt < 3; attempt++ {
			var rounds int
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := schedcheck.Replay(v.jobs, cfg)
					if len(res.Jobs) != len(v.jobs) {
						b.Fatalf("completed %d of %d jobs", len(res.Jobs), len(v.jobs))
					}
					rounds = res.Rounds
				}
			})
			secPerOp := r.T.Seconds() / float64(r.N)
			if jps := float64(len(v.jobs)) / secPerOp; jps > pb.JobsPerSec {
				pb = PolicyBench{
					JobsPerSec:   jps,
					RoundsPerSec: float64(rounds) / secPerOp,
					AllocsPerOp:  r.AllocsPerOp(),
					BytesPerOp:   r.AllocedBytesPerOp(),
				}
			}
		}
		entry.Policies[v.name] = pb
		fmt.Printf("%-16s %9.0f jobs/s  %9.0f rounds/s  %8d allocs/op\n",
			v.name, pb.JobsPerSec, pb.RoundsPerSec, pb.AllocsPerOp)
	}

	if *farm {
		entry.Farm = measureFarm()
		fmt.Printf("farm-fig6        serial %.2f cells/s  parallel %.2f cells/s  %d allocs/op\n",
			entry.Farm.SerialCellsPerSec, entry.Farm.ParallelCellsPerSec, entry.Farm.AllocsPerOp)
	}

	history, err := readHistory(*out)
	if err != nil {
		return err
	}
	if prev := lastWithPolicies(history); prev != nil {
		if err := compare(prev, &entry, *threshold, *allocThreshold); err != nil {
			return err
		}
	}
	if *checkOnly {
		return nil
	}
	history = append(history, entry)
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("appended entry %d to %s\n", len(history), *out)
	return nil
}

// measureFarm runs the BenchmarkFarmFig6 matrix (smoke workload) serial
// and parallel, in tool form.
func measureFarm() *FarmBench {
	run := func(workers int) (cellsPerSec float64, allocs int64) {
		cfg := experiments.Fig6Config{
			Repeats:    3,
			Seed:       1,
			Experiment: "fig6-bench",
			Workload:   experiments.SmokeWorkload(),
			Farm:       experiments.FarmOptions{Workers: workers},
		}
		cells := len(experiments.Fig6Cells(cfg))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig6(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(cells) / (r.T.Seconds() / float64(r.N)), r.AllocsPerOp()
	}
	fb := &FarmBench{}
	fb.SerialCellsPerSec, fb.AllocsPerOp = run(1)
	fb.ParallelCellsPerSec, _ = run(runtime.GOMAXPROCS(0))
	return fb
}

// readHistory loads the trajectory file; a missing file is an empty
// history.
func readHistory(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var history []Entry
	if err := json.Unmarshal(data, &history); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return history, nil
}

// lastWithPolicies finds the most recent entry carrying per-policy replay
// numbers (seed entries may have only derived aggregates).
func lastWithPolicies(history []Entry) *Entry {
	for i := len(history) - 1; i >= 0; i-- {
		if len(history[i].Policies) > 0 {
			return &history[i]
		}
	}
	return nil
}

// compare fails when any policy present in both entries regressed vs the
// previous entry: allocs/op is the primary gate (deterministic — immune to
// host contention, and hot-path churn shows up there first), jobs/s the
// secondary with a wide threshold since shared runners swing wall-clock
// throughput by double-digit percentages between runs.
func compare(prev, cur *Entry, threshold, allocThreshold float64) error {
	labels := make([]string, 0, len(prev.Policies))
	for label := range prev.Policies {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		p := prev.Policies[label]
		c, ok := cur.Policies[label]
		if !ok || p.JobsPerSec <= 0 {
			continue
		}
		if p.AllocsPerOp > 0 {
			growth := float64(c.AllocsPerOp-p.AllocsPerOp) / float64(p.AllocsPerOp)
			if growth > allocThreshold {
				return fmt.Errorf("policy %s allocs/op grew %.0f%% (%d → %d, threshold %.0f%%) vs entry %q (%s)",
					label, 100*growth, p.AllocsPerOp, c.AllocsPerOp, 100*allocThreshold, prev.Label, prev.Date)
			}
		}
		drop := (p.JobsPerSec - c.JobsPerSec) / p.JobsPerSec
		if drop > threshold {
			return fmt.Errorf("policy %s regressed %.0f%% (%.0f → %.0f jobs/s, threshold %.0f%%) vs entry %q (%s)",
				label, 100*drop, p.JobsPerSec, c.JobsPerSec, 100*threshold, prev.Label, prev.Date)
		}
		fmt.Printf("vs %q: %-16s %+.0f%% jobs/s, %+d allocs/op\n", prev.Label, label, -100*drop, c.AllocsPerOp-p.AllocsPerOp)
	}
	return nil
}
