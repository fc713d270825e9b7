package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/farm"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/stats"
	"wasched/internal/workload"
)

// Variant is one scheduler configuration of the paper's evaluation.
type Variant struct {
	// Key is the figure panel key ("a".."e").
	Key string
	// Label is the paper's description of the panel.
	Label string
	// Policy builds the scheduling policy for the given node count.
	Policy sched.Policy
	// Pretrain runs the paper's isolation pre-training before the
	// workload.
	Pretrain bool
}

// Fig3Variants returns the five configurations of paper Fig. 3
// (Workload 1).
func Fig3Variants() []Variant {
	return []Variant{
		{"a", "default Slurm scheduling", sched.NodePolicy{TotalNodes: Nodes}, false},
		{"b", "I/O-aware, 20 GiB/s limit, pre-trained", sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20}, true},
		{"c", "I/O-aware, 15 GiB/s limit, pre-trained", sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15}, true},
		{"d", "adaptive, 20 GiB/s limit, pre-trained", sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}, true},
		{"e", "adaptive, 20 GiB/s limit, untrained", sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}, false},
	}
}

// Fig5Variants returns the five configurations of paper Fig. 5
// (Workload 2). All estimator-driven variants are pre-trained, as in the
// paper's §VII-A protocol.
func Fig5Variants() []Variant {
	return []Variant{
		{"a", "default Slurm scheduling", sched.NodePolicy{TotalNodes: Nodes}, false},
		{"b", "I/O-aware, 20 GiB/s limit", sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20}, true},
		{"c", "I/O-aware, 15 GiB/s limit", sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15}, true},
		{"d", "adaptive, 20 GiB/s limit", sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}, true},
		{"e", "adaptive, 15 GiB/s limit", sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15, TwoGroup: true}, true},
	}
}

// variantByKey selects a variant by its panel key.
func variantByKey(vs []Variant, key string) (Variant, error) {
	for _, v := range vs {
		if v.Key == key {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("experiments: no variant %q", key)
}

// RunFig3 runs one panel of paper Fig. 3: Workload 1 under the keyed
// configuration.
func RunFig3(key string, seed uint64) (*RunResult, error) {
	v, err := variantByKey(Fig3Variants(), key)
	if err != nil {
		return nil, err
	}
	return RunWorkload(DefaultOptions(v.Policy, seed), workload.Workload1(), v.Pretrain,
		"fig3"+key+": "+v.Label)
}

// RunFig5 runs one panel of paper Fig. 5: Workload 2 under the keyed
// configuration.
func RunFig5(key string, seed uint64) (*RunResult, error) {
	v, err := variantByKey(Fig5Variants(), key)
	if err != nil {
		return nil, err
	}
	return RunWorkload(DefaultOptions(v.Policy, seed), workload.Workload2(), v.Pretrain,
		"fig5"+key+": "+v.Label)
}

// Fig4Point is one box of paper Fig. 4: the distribution of the total
// Lustre throughput while k "write×8" jobs run concurrently.
type Fig4Point struct {
	Jobs int
	Box  stats.Box // GiB/s
}

// Fig4Config tunes the Fig. 4 measurement.
type Fig4Config struct {
	MaxJobs int          // sweep 0..MaxJobs (paper: 15)
	Warmup  des.Duration // discarded lead-in per point
	Measure des.Duration // sampled window per point
	Seed    uint64
	PFS     pfs.Config
	// Farm passes the calibration ladder through the sweep orchestrator:
	// worker count, resume state dir, progress sink.
	Farm FarmOptions
}

// FarmOptions are the orchestration knobs shared by the farm-backed
// experiments (fig4 ladder, fig6 repeat matrix, figure panels).
type FarmOptions struct {
	// Workers bounds parallel cell execution (<= 0: GOMAXPROCS).
	Workers int
	// StateDir enables the on-disk result cache + checkpoint journal so
	// interrupted sweeps resume without recomputing finished cells.
	StateDir string
	// Progress receives periodic farm progress lines (nil: silent).
	Progress io.Writer
}

func (o FarmOptions) farm() farm.Options {
	return farm.Options{Workers: o.Workers, StateDir: o.StateDir, Progress: o.Progress}
}

// DefaultFig4Config matches the paper's sweep: 0..15 jobs, with a 60 s
// warm-up and a 600 s measured window per point.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		MaxJobs: 15,
		Warmup:  60 * des.Second,
		Measure: 600 * des.Second,
		Seed:    1,
		PFS:     pfs.DefaultConfig(),
	}
}

// Fig4Cells enumerates the calibration ladder as farm work units, one per
// concurrent-job count. The config key carries the measurement windows so
// cached results from differently-tuned ladders never collide.
func Fig4Cells(cfg Fig4Config) []farm.Cell {
	cells := make([]farm.Cell, 0, cfg.MaxJobs+1)
	for k := 0; k <= cfg.MaxJobs; k++ {
		cells = append(cells, farm.Cell{
			Experiment: "fig4",
			Config: fmt.Sprintf("k=%02d,warm=%ds,meas=%ds",
				k, int(des.Duration(cfg.Warmup).Seconds()), int(des.Duration(cfg.Measure).Seconds())),
			Seed: cfg.Seed + uint64(k)*1000, // the seed measureFig4Point derives
		})
	}
	return cells
}

// Fig4Exec returns the farm executor for calibration-ladder cells.
func Fig4Exec(cfg Fig4Config) farm.Exec {
	return func(_ context.Context, c farm.Cell) (any, error) {
		var k int
		if _, err := fmt.Sscanf(c.Config, "k=%d", &k); err != nil {
			return nil, fmt.Errorf("experiments: bad fig4 cell config %q: %w", c.Config, err)
		}
		box, err := measureFig4Point(cfg, k)
		if err != nil {
			return nil, err
		}
		return Fig4Point{Jobs: k, Box: box}, nil
	}
}

// RunFig4 reproduces paper Fig. 4: for each k in 0..MaxJobs it keeps k
// "write×8" jobs running continuously (each job restarts when it finishes,
// as the paper's steady-state phases do), samples the total throughput
// every second, and reports the distribution. The ladder's points are
// independent simulations, so they run through the farm orchestrator in
// parallel (cfg.Farm tunes workers, resume and progress).
func RunFig4(cfg Fig4Config) ([]Fig4Point, error) {
	if cfg.MaxJobs < 0 {
		return nil, fmt.Errorf("experiments: MaxJobs must be non-negative, got %d", cfg.MaxJobs)
	}
	if cfg.Warmup < 0 || cfg.Measure <= 0 {
		return nil, fmt.Errorf("experiments: invalid warmup/measure windows")
	}
	sum, err := farm.Run(context.Background(), "fig4", Fig4Cells(cfg), Fig4Exec(cfg), cfg.Farm.farm())
	if err != nil {
		return nil, err
	}
	return Fig4Points(sum)
}

// Fig4Points aggregates a completed calibration-ladder sweep into its
// sorted box-plot points.
func Fig4Points(sum *farm.Summary) ([]Fig4Point, error) {
	if err := sweepErr(sum); err != nil {
		return nil, err
	}
	out := make([]Fig4Point, 0, len(sum.Outcomes))
	for _, o := range sum.Outcomes {
		var p Fig4Point
		if err := o.Decode(&p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Jobs < out[b].Jobs })
	return out, nil
}

// sweepErr folds a sweep summary into an error that names every failed
// cell: a validator rejection in one configuration must not mask
// another's.
func sweepErr(sum *farm.Summary) error {
	err := sum.Err()
	if err == nil {
		return nil
	}
	errs := []error{err}
	for _, o := range sum.Outcomes {
		if o.Status == farm.StatusFailed {
			errs = append(errs, fmt.Errorf("cell %s failed: %s", o.Cell, firstLine(o.Err)))
		}
	}
	return errors.Join(errs...)
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func measureFig4Point(cfg Fig4Config, jobs int) (stats.Box, error) {
	eng := des.NewEngine()
	fs, err := pfs.New(eng, cfg.PFS, cfg.Seed+uint64(jobs)*1000)
	if err != nil {
		return stats.Box{}, err
	}
	cl, err := cluster.New(eng, fs, Nodes, "node", cfg.Seed+uint64(jobs)*1000)
	if err != nil {
		return stats.Box{}, err
	}
	prog := cluster.WriteProgram{Threads: 8, BytesPerThread: workload.BytesPerThread}
	// Keep exactly `jobs` write×8 jobs alive: restart each as it finishes.
	var launch func(slot int)
	gen := make([]int, jobs)
	launch = func(slot int) {
		gen[slot]++
		id := fmt.Sprintf("w%d-%d", slot, gen[slot])
		if _, err := cl.Start(id, 1, prog, func(*cluster.Execution) { launch(slot) }); err != nil {
			panic(fmt.Sprintf("experiments: fig4 restart: %v", err))
		}
	}
	for s := 0; s < jobs; s++ {
		launch(s)
	}
	var samples []float64
	warmEnd := des.Time(cfg.Warmup)
	stop := eng.Ticker(des.Second, "fig4/probe", func(now des.Time) {
		if now > warmEnd {
			samples = append(samples, fs.CurrentAggregateRate()/pfs.GiB)
		}
	})
	eng.Run(des.Time(cfg.Warmup + cfg.Measure))
	stop()
	if jobs == 0 {
		// No jobs → no samples needed beyond the implied zeros.
		samples = []float64{0}
	}
	return stats.BoxStats(samples), nil
}

// Fig6Config tunes the repeated-runs summary.
type Fig6Config struct {
	Repeats int
	Seed    uint64
	// Farm carries the sweep orchestration knobs (workers, state dir,
	// progress).
	Farm FarmOptions
	// Experiment names the sweep for the farm's result cache ("" =
	// "fig6"). Sweeps over non-default workloads must use their own name.
	Experiment string
	// Workload overrides the swept workload (nil = paper Workload 2) —
	// the hook the smoke sweep and the determinism tests use.
	Workload []slurm.JobSpec
}

func (cfg *Fig6Config) normalize() {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 5
	}
	if cfg.Experiment == "" {
		cfg.Experiment = "fig6"
	}
}

// fig6Payload is the deterministic per-cell result the farm caches and
// aggregates: everything a Fig6Row needs, nothing simulation-sized.
type fig6Payload struct {
	Makespan  float64 `json:"makespan_s"`
	BusyNodes float64 `json:"busy_nodes"`
}

// Fig6Row is one scheduler configuration's swarm of makespans.
type Fig6Row struct {
	Variant  Variant
	Swarm    stats.Swarm // makespans in seconds
	VsBase   float64     // median relative to the default scheduler's
	BootLo   float64     // 95% bootstrap CI of the median
	BootHi   float64
	MeanBusy float64 // averaged over repeats
	// PValue is the two-sided Mann-Whitney p-value against the default
	// scheduler's swarm (1 for the default row itself).
	PValue float64
}

// Fig6Cells enumerates the repeat matrix as farm work units: one cell per
// (variant, repeat), seeded exactly as the historical serial sweep so
// regenerated numbers stay comparable across versions.
func Fig6Cells(cfg Fig6Config) []farm.Cell {
	cfg.normalize()
	var cells []farm.Cell
	for _, v := range Fig5Variants() {
		for r := 0; r < cfg.Repeats; r++ {
			cells = append(cells, farm.Cell{
				Experiment: cfg.Experiment,
				Config:     v.Key,
				Seed:       cfg.Seed + uint64(r)*7919,
			})
		}
	}
	return cells
}

// Fig6Exec returns the farm executor for repeat-matrix cells: one full
// Workload 2 (or override) simulation per cell, invariant-checked by
// RunWorkload, reduced to the deterministic fig6 payload.
func Fig6Exec(cfg Fig6Config) farm.Exec {
	cfg.normalize()
	specs := cfg.Workload
	if specs == nil {
		specs = workload.Workload2()
	}
	return func(_ context.Context, c farm.Cell) (any, error) {
		v, err := variantByKey(Fig5Variants(), c.Config)
		if err != nil {
			return nil, err
		}
		res, err := RunWorkload(DefaultOptions(v.Policy, c.Seed), specs, v.Pretrain,
			fmt.Sprintf("%s/%s/seed%d", cfg.Experiment, c.Config, c.Seed))
		if err != nil {
			return nil, err
		}
		return fig6Payload{Makespan: res.Makespan, BusyNodes: res.MeanBusyNodes}, nil
	}
}

// Fig6Rows aggregates a completed repeat-matrix sweep into the Fig. 6
// summary rows. The aggregation is pure and order-insensitive to worker
// scheduling: outcomes arrive in cell order, so a parallel sweep yields
// byte-identical rows to a serial one.
func Fig6Rows(cfg Fig6Config, sum *farm.Summary) ([]Fig6Row, error) {
	cfg.normalize()
	if err := sweepErr(sum); err != nil {
		return nil, err
	}
	byKey := make(map[string][]fig6Payload)
	for _, o := range sum.Outcomes {
		var p fig6Payload
		if err := o.Decode(&p); err != nil {
			return nil, err
		}
		byKey[o.Cell.Config] = append(byKey[o.Cell.Config], p)
	}
	rows := make([]Fig6Row, 0, len(byKey))
	for _, v := range Fig5Variants() {
		cells := byKey[v.Key]
		if len(cells) != cfg.Repeats {
			return nil, fmt.Errorf("experiments: variant %s has %d results, want %d", v.Key, len(cells), cfg.Repeats)
		}
		values := make([]float64, 0, len(cells))
		busy := 0.0
		for _, p := range cells {
			values = append(values, p.Makespan)
			busy += p.BusyNodes
		}
		sw := stats.NewSwarm(v.Label, values)
		lo, hi := stats.Bootstrap(values, 0.95, 2000, cfg.Seed)
		rows = append(rows, Fig6Row{
			Variant:  v,
			Swarm:    sw,
			BootLo:   lo,
			BootHi:   hi,
			MeanBusy: busy / float64(cfg.Repeats),
		})
	}
	base := rows[0].Swarm.Median
	for i := range rows {
		rows[i].VsBase = stats.RelChange(rows[i].Swarm.Median, base)
		if i == 0 {
			rows[i].PValue = 1
			continue
		}
		_, rows[i].PValue = stats.MannWhitneyU(rows[i].Swarm.Values, rows[0].Swarm.Values)
	}
	return rows, nil
}

// RunFig6 reproduces paper Fig. 6: Workload 2 is scheduled repeatedly under
// every Fig. 5 configuration with varying seeds; the rows report the
// makespan distributions, medians, and the median's change versus default.
//
// The (variant, seed) runs are independent simulations on separate
// engines, so they execute through the farm orchestrator in parallel;
// results are deterministic regardless of worker count because each cell's
// outcome depends only on its own seed (see TestFig6FarmDeterminism).
func RunFig6(cfg Fig6Config) ([]Fig6Row, error) {
	cfg.normalize()
	sum, err := farm.Run(context.Background(), cfg.Experiment, Fig6Cells(cfg), Fig6Exec(cfg), cfg.Farm.farm())
	if err != nil {
		return nil, err
	}
	return Fig6Rows(cfg, sum)
}

// runWith is a helper for ablations that need tweaked options.
func runWith(policy sched.Policy, specs []slurm.JobSpec, pretrain bool, seed uint64,
	label string, mutate func(*Options)) (*RunResult, error) {
	opts := DefaultOptions(policy, seed)
	if mutate != nil {
		mutate(&opts)
	}
	return RunWorkload(opts, specs, pretrain, label)
}
