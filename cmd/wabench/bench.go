package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// result is one invocation's measurement of one workload, the line
// `-out` appends and `wabench compare` reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	problems  []string
}

// settings configure one invocation.
type settings struct {
	seed    uint64
	seconds float64 // how long the timed reps run, at least minReps of them
	traced  bool
	profDir string // where traced runs leave their profiles
}

// minReps is the fewest timed reps a run makes, however short --seconds.
const minReps = 3

// rep is one set-up plus one timed section.
type rep struct {
	setup  time.Duration
	run    time.Duration
	cpu    time.Duration
	allocs uint64 // heap objects allocated in the timed section
	heap   uint64 // live heap bytes after it, the finished run still held
	out    *outcome
}

// bracket starts tracing right before a timed section and returns the
// function that stops it right after.
type bracket func() (stop func() error, err error)

// doRep sets up in and runs its timed section once. The heap is collected
// before the section, so every rep starts from the same heap.
func doRep(in input, traced bool, around bracket) (*rep, error) {
	r := &rep{}
	start := time.Now()
	inst, err := in.setup(traced, map[string]time.Duration{})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.setup = time.Since(start)
	runtime.GC()
	stop := func() error { return nil }
	if around != nil {
		if stop, err = around(); err != nil {
			return nil, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu0 := cpuTime()
	start = time.Now()
	runErr := inst.run()
	r.run = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	r.allocs = ms.Mallocs - mallocs
	if err := stop(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("run: %w", runErr)
	}
	r.out = inst.result()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
	runtime.KeepAlive(inst)
	return r, nil
}

// measure runs one workload: an untimed warm-up rep, timed reps back to
// back for s.seconds, and with s.traced the two traced reps. Every rep's
// schedule must match the warm-up's digest.
func measure(w workloadDef, s settings) (*result, error) {
	in, err := w.newInput(s.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	warm, err := doRep(in, false, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: s.seed, Metrics: map[string]summary{}}
	check := func(label string, r *rep) {
		for _, p := range r.out.problems {
			res.problems = append(res.problems, label+": "+p)
		}
		if r.out.failed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d jobs failed", label, r.out.failed, r.out.jobs))
		}
		if r.out.digest != warm.out.digest {
			res.problems = append(res.problems, label+": schedule digest differs from the warm-up rep's")
		}
	}
	check("warm-up", warm)

	if err := timeSetups(in, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < s.seconds {
		r, err := doRep(in, false, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.name, len(reps)+1, err)
		}
		label := fmt.Sprintf("rep %d", len(reps)+1)
		fmt.Fprintf(os.Stderr, "%s %s: set-up %.4fs, timed %.4fs, cpu %.4fs\n", w.name, label, r.setup.Seconds(), r.run.Seconds(), r.cpu.Seconds())
		check(label, r)
		res.Attempted += r.out.jobs
		res.Failed += r.out.failed
		reps = append(reps, r)
	}
	jobs := float64(warm.out.jobs)
	each := func(f func(r *rep) float64) summary {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return summarize(v)
	}
	runs := each(func(r *rep) float64 { return r.run.Seconds() })
	res.Metrics["jobs_per_s"] = each(func(r *rep) float64 { return jobs / r.run.Seconds() })
	res.Metrics["allocs_per_job"] = each(func(r *rep) float64 { return float64(r.allocs) / jobs })
	res.Metrics["live_heap_mib"] = each(func(r *rep) float64 { return float64(r.heap) / (1 << 20) })
	res.Metrics["makespan_s"] = exact(warm.out.makespan)
	res.Metrics["mean_wait_s"] = exact(warm.out.meanWait)

	if s.traced {
		if err := traceRun(in, s.profDir, runs.Median, res, check); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	}
	res.Correct = len(res.problems) == 0
	return res, nil
}

// Set-ups are short next to a rep, so a run affords many: timeSetups
// keeps timing them for at least setupSeconds and setupSamples times, and
// their median is steady.
const (
	setupSamples = 10
	setupSeconds = 1.0
)

// setupPhases are the set-up steps timed inside input.setup; each
// workload runs two of them.
var setupPhases = []string{"core.build", "core.pretrain", "workload.parse", "schedcheck.convert"}

// timeSetups times set-ups of in, each from a collected heap, for
// setup_s and the share of each set-up phase.
func timeSetups(in input, res *result) error {
	var totals []float64
	shares := map[string][]float64{}
	for begin := time.Now(); len(totals) < setupSamples || time.Since(begin).Seconds() < setupSeconds; {
		runtime.GC()
		phases := map[string]time.Duration{}
		start := time.Now()
		if _, err := in.setup(false, phases); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		total := time.Since(start).Seconds()
		totals = append(totals, total)
		for _, p := range setupPhases {
			shares[p] = append(shares[p], phases[p].Seconds()/total)
		}
	}
	res.Metrics["setup_s"] = summarize(totals)
	for p, v := range shares {
		res.Metrics[p+"_frac"] = summarize(v)
	}
	return nil
}

// counterNames are the per-layer counters; a workload that does not run
// a layer reports its counters as zero.
var counterNames = []string{
	"ldms.samples", "ldms.flushes", "sos.rows_retained", "analytics.completed",
	"slurm.rounds", "slurm.timeouts", "slurm.starts_per_round", "pfs.recomputes", "tbf.ticks",
	"des.events", "des.pool_slots", "sched.new_rounds", "sched.earliest_start_calls",
	"sched.reserve_calls", "sched.placements_per_probe", "replay.rounds",
	"replay.useful_round_frac",
}

func exact(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }

// traceRun makes the two traced reps and adds the per-layer metrics to
// res. The first rep runs under the CPU profiler with the policy timed;
// the second records every allocation. Both profiles are rolled up by
// layer. baseRun is the median untraced timed section, in seconds.
func traceRun(in input, profDir string, baseRun float64, res *result, check func(string, *rep)) error {
	if profDir == "" {
		dir, err := os.MkdirTemp("", "wabench-prof")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		profDir = dir
	} else if err := os.MkdirAll(profDir, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(profDir, res.Workload)

	cpuRep, err := doRep(in, true, cpuProfile(prefix+".cpu.pb.gz"))
	if err != nil {
		return err
	}
	check("cpu-profiled rep", cpuRep)
	allocRep, err := doRep(in, false, allocProfile(prefix+".allocs-before.pb.gz", prefix+".allocs.pb.gz"))
	if err != nil {
		return err
	}
	check("alloc-profiled rep", allocRep)

	set := func(name string, v float64) { res.Metrics[name] = exact(v) }
	for _, name := range counterNames {
		set(name, cpuRep.out.counters[name])
	}
	spans := cpuRep.out.spans
	for _, name := range []string{"sim.run", "schedcheck.validate", "trace.metrics"} {
		set(name+"_s", spans[name].Seconds())
	}
	set("sched.policy_frac", spans["sched.policy"].Seconds()/spans["sim.run"].Seconds())
	set("trace.overhead_frac", cpuRep.run.Seconds()/baseRun-1)

	cpu, total, err := pprofTraces("-sample_index=samples", prefix+".cpu.pb.gz")
	if err != nil {
		return err
	}
	addLayers(res, "cpu", cpu, total)
	allocs, _, err := pprofTraces("-sample_index=alloc_objects", "-base", prefix+".allocs-before.pb.gz", prefix+".allocs.pb.gz")
	if err != nil {
		return err
	}
	addLayers(res, "allocs", allocs, -1)
	return nil
}

// addLayers rolls samples up by layer into <kind>.<layer> metrics plus
// <kind>.total. When the profile states its total, the layers must sum to
// within 5% of it.
func addLayers(res *result, kind string, samples []sample, total int64) {
	var sum int64
	for layer, v := range rollUp(samples) {
		res.Metrics[kind+"."+layer] = exact(float64(v))
		sum += v
	}
	if total < 0 {
		total = sum
	}
	if d := sum - total; d*20 > total || -d*20 > total {
		res.problems = append(res.problems, fmt.Sprintf("%s profile: layers sum to %d, profile total is %d", kind, sum, total))
	}
	res.Metrics[kind+".total"] = exact(float64(total))
}

func cpuProfile(path string) bracket {
	return func() (func() error, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}, nil
	}
}

// allocProfile records every allocation of the timed section: the heap
// profile is written before and after it at MemProfileRate 1, and
// `pprof -base` subtracts the first. Both are written at the same rate
// because pprof scales every record by the rate in force when it writes.
func allocProfile(before, after string) bracket {
	return func() (func() error, error) {
		old := runtime.MemProfileRate
		runtime.MemProfileRate = 1
		if err := writeHeap(before); err != nil {
			runtime.MemProfileRate = old
			return nil, err
		}
		return func() error {
			defer func() { runtime.MemProfileRate = old }()
			runtime.GC() // the heap profile shows allocations as of the last GC
			return writeHeap(after)
		}, nil
	}
}

func writeHeap(path string) error {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// cpuTime is the process's user and system CPU time so far. Next to the
// wall time of a rep it tells time the VM lost to other guests, which
// counts in wall time only, from a slower program.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid "who"
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
