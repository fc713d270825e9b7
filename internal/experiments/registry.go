package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"wasched/internal/farm"
	"wasched/internal/pfs"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

// Experiment is one registered experiment. `wasched run`, `wasched sweep
// run|resume` and `wasched report` all execute it the same way: its cells
// through farm.Run (in memory, or checkpointed under a state dir), then
// its report over the summary.
type Experiment struct {
	Name        string
	Description string
	// Cells enumerates the work units for a seed. It must be a pure
	// function of the seed, so a resumed run re-enumerates exactly the
	// cells of the interrupted one.
	Cells func(seed uint64) []farm.Cell
	// Exec builds the cell executor for a seed. A cell's JSON payload is
	// its digest: everything Report prints for it, derived from the cell
	// alone, so a cached cell renders the same text as a fresh one.
	Exec func(seed uint64) farm.Exec
	// Report renders a completed summary from the cell digests alone.
	Report func(w io.Writer, seed uint64, sum *farm.Summary) error
}

// RunOptions parameterise an experiment invocation.
type RunOptions struct {
	// Seed varies the stochastic parts; the same seed reproduces the same
	// report bit for bit.
	Seed uint64
	// CSVDir, when non-empty, receives per-run series and job CSV files
	// (<experiment>-series.csv, <experiment>-jobs.csv). They come from
	// the in-memory recorders, which cached cells lack, so CSVDir is
	// incompatible with Farm.StateDir.
	CSVDir string
	// Farm carries the orchestration knobs: workers (the cell results are
	// identical for any worker count), the state dir that makes a run
	// resumable, progress and MaxFresh.
	Farm farm.Options
}

func (o RunOptions) validate() error {
	if o.CSVDir != "" && o.Farm.StateDir != "" {
		return fmt.Errorf("experiments: -csv is incompatible with -state-dir (cached cells have no recorders to export)")
	}
	return nil
}

// Run executes the experiment's cells and writes its report to w. Failed
// cells fail the run, each named in the error; an interrupted run returns
// an error wrapping farm.ErrInterrupted.
func (e Experiment) Run(ctx context.Context, w io.Writer, opts RunOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	sum, err := farm.Run(ctx, e.Name, e.Cells(opts.Seed), e.Exec(opts.Seed), opts.Farm)
	if err != nil {
		return err
	}
	if err := sweepErr(sum); err != nil {
		return err
	}
	for _, o := range sum.Outcomes {
		if rec, ok := o.Value().(recorded); ok {
			for _, res := range rec.runs {
				if err := exportCSV(opts.CSVDir, res); err != nil {
					return err
				}
			}
		}
	}
	return e.Report(w, opts.Seed, sum)
}

// recorded pairs a cell's digest with the runs it was computed from. Only
// the digest reaches the JSON payload; the runs stay in memory for -csv.
type recorded struct {
	digest any
	runs   []*RunResult
}

func (r recorded) MarshalJSON() ([]byte, error) { return json.Marshal(r.digest) }

// Experiments returns every registered experiment, sorted by name. The
// names match DESIGN.md's per-experiment index.
func Experiments() []Experiment {
	list := []Experiment{
		fig6Experiment("fig6", "paper Fig. 6: Workload 2 makespans over repeats (swarm + medians)",
			func(seed uint64) Fig6Config { return Fig6Config{Repeats: 5, Seed: seed} }),
		fig6Experiment("fig6-smoke", "miniature fig6 matrix (smoke workload, 2 repeats) for exercising resume",
			func(seed uint64) Fig6Config {
				return Fig6Config{Repeats: 2, Seed: seed, Experiment: "fig6-smoke", Workload: SmokeWorkload()}
			}),
		{
			Name:        "fig4",
			Description: "paper Fig. 4: throughput vs concurrent write×8 jobs (box plots)",
			Cells:       func(seed uint64) []farm.Cell { return Fig4Cells(fig4Config(seed)) },
			Exec:        func(seed uint64) farm.Exec { return Fig4Exec(fig4Config(seed)) },
			Report: func(w io.Writer, _ uint64, sum *farm.Summary) error {
				points, err := Fig4Points(sum)
				if err != nil {
					return err
				}
				PrintFig4(w, points)
				return nil
			},
		},
		{
			Name:        "schedcheck",
			Description: "differential correctness corpus: every workload kind × seed, all policies",
			Cells: func(seed uint64) []farm.Cell {
				return schedcheck.CorpusCells("schedcheck", corpusSeeds(seed))
			},
			Exec:   func(uint64) farm.Exec { return schedcheck.CorpusExec(corpusNodes, corpusLimit) },
			Report: reportCorpus,
		},
		{
			Name:        "ablations",
			Description: "every ablation grid, one cell per grid (cacheable table digests)",
			Cells:       ablationCells(AblationGrids()...),
			Exec:        ablationExec,
			Report:      reportAblations(true),
		},
	}
	list = append(list, figure("fig3", "paper Fig. 3: Workload 1 under all five scheduler configurations",
		"Fig. 3 (Workload 1, 720 jobs)", "paper Fig. 3(%s): Workload 1, %s", Fig3Variants(), RunFig3)...)
	list = append(list, figure("fig5", "paper Fig. 5: Workload 2 under all five scheduler configurations",
		"Fig. 5 (Workload 2, 1550 jobs)", "paper Fig. 5(%s): Workload 2, %s", Fig5Variants(), RunFig5)...)
	for _, g := range AblationGrids() {
		list = append(list, Experiment{g.Name, g.Description, ablationCells(g), ablationExec, reportAblations(false)})
	}
	sort.Slice(list, func(a, b int) bool { return list[a].Name < list[b].Name })
	return list
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// figure registers a Fig. 3/5 experiment and its five single panels. A
// single panel's cell is the matching cell of the whole figure, so the
// two share cache entries.
func figure(name, description, title, panelDescription string, variants []Variant,
	run func(string, uint64) (*RunResult, error)) []Experiment {
	cells := func(keys ...string) func(uint64) []farm.Cell {
		return func(seed uint64) []farm.Cell {
			out := make([]farm.Cell, len(keys))
			for i, k := range keys {
				// "-panels" keeps these cells off the keys of the older
				// fig3/fig5 sweeps, whose payloads held no plots.
				out[i] = farm.Cell{Experiment: name + "-panels", Config: k, Seed: seed}
			}
			return out
		}
	}
	exec := func(uint64) farm.Exec {
		return func(_ context.Context, c farm.Cell) (any, error) {
			res, err := run(c.Config, c.Seed)
			if err != nil {
				return nil, err
			}
			return recorded{digestPanel(res), []*RunResult{res}}, nil
		}
	}
	keys := make([]string, len(variants))
	for i, v := range variants {
		keys[i] = v.Key
	}
	out := []Experiment{{name, description, cells(keys...), exec, reportPanels(title)}}
	for _, v := range variants {
		out = append(out, Experiment{name + v.Key, fmt.Sprintf(panelDescription, v.Key, v.Label),
			cells(v.Key), exec, reportPanels("")})
	}
	return out
}

func fig6Experiment(name, description string, config func(seed uint64) Fig6Config) Experiment {
	return Experiment{
		Name:        name,
		Description: description,
		Cells:       func(seed uint64) []farm.Cell { return Fig6Cells(config(seed)) },
		Exec:        func(seed uint64) farm.Exec { return Fig6Exec(config(seed)) },
		Report: func(w io.Writer, seed uint64, sum *farm.Summary) error {
			rows, err := Fig6Rows(config(seed), sum)
			if err != nil {
				return err
			}
			PrintFig6(w, rows)
			return nil
		},
	}
}

func fig4Config(seed uint64) Fig4Config {
	c := DefaultFig4Config()
	c.Seed = seed
	return c
}

// SmokeWorkload is a scaled-down Workload 1 (2 waves × (15 write×8 + 30
// sleep)): large enough for write congestion to separate the policies,
// small enough that a full smoke sweep finishes in seconds. The fig6-smoke
// experiment and the farm determinism/benchmark tests share it.
func SmokeWorkload() []slurm.JobSpec {
	var specs []slurm.JobSpec
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 15; i++ {
			specs = append(specs, workload.WriteJob(8))
		}
		for i := 0; i < 30; i++ {
			specs = append(specs, workload.SleepJob())
		}
	}
	return specs
}

// AblationGrid names one ablation grid: a self-contained comparison table
// over scheduler variants or parameter sweeps. Each grid is an experiment
// of its own and one cell of the "ablations" experiment.
type AblationGrid struct {
	Name        string
	Description string
	Run         func(seed uint64) ([]AblationRow, error)
}

// AblationGrids returns the grids in the order the "ablations" experiment
// prints them.
func AblationGrids() []AblationGrid {
	return []AblationGrid{
		{"ablation-two-group", "two-group approximation on/off (W2, adaptive 15 GiB/s)", AblationTwoGroup},
		{"ablation-guard", "measured-throughput guard on/off under lying estimates (staggered arrivals)", AblationMeasuredGuard},
		{"ablation-backfill", "BackfillMax depth sweep on the mixed multi-node workload", AblationBackfillMax},
		{"ablation-licenses", "analytics estimates vs static user-declared licenses (W1)", AblationLicenses},
		{"ablation-qos", "two-group QoS fraction sweep (W2, adaptive 15 GiB/s)", AblationQoSFraction},
		{"ablation-bursty", "bursty-application workload: default vs adaptive", AblationBurstOverlap},
		{"ablation-submission", "submission protocols: batch vs feeder vs poisson (W1, adaptive)", AblationSubmission},
		{"ablation-degradation", "mid-run file-system degradation: default vs adaptive (W1)", AblationDegradation},
		{"ablation-ordering", "FIFO vs TETRIS dot-product window ordering (mixed workload)", AblationOrdering},
		{"sweep-limit", "fixed-limit U-curve vs the self-tuning adaptive scheduler (W1)", SweepLimit},
		{"ablation-plateau", "two-group benefit in the plateau regime (W2, shallow queue)", AblationPlateau},
		{"ablation-checkpoint", "checkpoint/restart read+write workload: default vs io-aware vs adaptive", AblationCheckpoint},
		{"ablation-burstbuffer", "BB-bottlenecked workload: BB-blind policies vs plan co-reservation (replayer)", AblationBurstBuffer},
		{"ablation-tokenbucket", "central I/O reservation vs decentralized token buckets vs straggler-aware (replayer, 3 seeds)", AblationTokenBucket},
	}
}

// ablationCells enumerates one cell per grid. The cells keep the keys of
// the "ablations" experiment whatever experiment runs them, so a grid run
// on its own and the same grid in "ablations" share one cache entry.
func ablationCells(grids ...AblationGrid) func(uint64) []farm.Cell {
	return func(seed uint64) []farm.Cell {
		cells := make([]farm.Cell, len(grids))
		for i, g := range grids {
			cells[i] = farm.Cell{Experiment: "ablations", Config: g.Name, Seed: seed}
		}
		return cells
	}
}

func ablationExec(uint64) farm.Exec {
	grids := make(map[string]AblationGrid)
	for _, g := range AblationGrids() {
		grids[g.Name] = g
	}
	return func(_ context.Context, c farm.Cell) (any, error) {
		g, ok := grids[c.Config]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown ablation grid %q", c.Config)
		}
		rows, err := g.Run(c.Seed)
		if err != nil {
			return nil, err
		}
		runs := make([]*RunResult, len(rows))
		for i, r := range rows {
			runs[i] = r.Result
		}
		return recorded{DigestAblation(rows), runs}, nil
	}
}

// The schedcheck experiment replays the differential corpus on the same
// miniature cluster the package's own tests use.
const (
	corpusNodes = 16
	corpusLimit = 20 * pfs.GiB
)

func corpusSeeds(seed uint64) []uint64 {
	seeds := schedcheck.CorpusSeeds()
	if seed != 0 {
		for i := range seeds {
			seeds[i] += seed
		}
	}
	return seeds
}

// reportOrder lists the experiments of the full report: the figures in
// the paper's order, then the ablation grids alphabetically. Single
// panels are subsumed by their figures; the "ablations" experiment, the
// smoke matrix and the schedcheck corpus stay out.
func reportOrder() []string {
	var grids []string
	for _, g := range AblationGrids() {
		grids = append(grids, g.Name)
	}
	sort.Strings(grids)
	return append([]string{"fig3", "fig4", "fig5", "fig6"}, grids...)
}
