// Command wasched runs the paper-reproduction experiments.
//
// Usage:
//
//	wasched list
//	wasched workloads
//	wasched run <experiment> [-seed N] [-parallel N]
//	wasched replay <trace.swf[.gz]> [-policy P] ...
//	wasched sweep list|run|resume|status|clean ...
//
// `wasched list` (and `wasched sweep list`) prints the one experiment
// list: fig3..fig6, their single panels, the ablation grids, the smoke
// matrix and the schedcheck corpus. `wasched run` executes one through
// the farm orchestrator in memory and prints its report, including ASCII
// renderings of the figures' panels. `wasched sweep run` is the same run
// with live progress on stderr and, given a state dir (-state-dir),
// checkpoint/resume and graceful drain on Ctrl-C: an interrupted sweep
// exits with code 3 and `sweep resume` picks up the remaining cells.
// Both print the same text.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"wasched/internal/experiments"
	"wasched/internal/farm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wasched:", err)
		if errors.Is(err, farm.ErrInterrupted) {
			os.Exit(3) // resumable: finished cells are journaled
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		listExperiments()
		return nil
	case "workloads":
		fmt.Println(experiments.WorkloadSizes())
		return nil
	case "run":
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed (same seed → identical report)")
		csvDir := fs.String("csv", "", "directory for per-run series/job CSV exports")
		parallel := fs.Int("parallel", 0, "worker bound for multi-run experiments (<=0: GOMAXPROCS)")
		// Accept flags before or after the experiment name.
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return fmt.Errorf("usage: wasched run <experiment> [-seed N] [-csv DIR] [-parallel N]")
		}
		name := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: wasched run <experiment> [-seed N] [-csv DIR] [-parallel N]")
		}
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try `wasched list`)", name)
		}
		return e.Run(context.Background(), os.Stdout,
			experiments.RunOptions{Seed: *seed, CSVDir: *csvDir, Farm: farm.Options{Workers: *parallel}})
	case "sweep":
		return runSweep(args[1:])
	case "replay":
		return runReplay(args[1:])
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		claims, err := experiments.Verify(os.Stdout, *seed)
		if err != nil {
			return err
		}
		for _, c := range claims {
			if !c.Pass {
				return fmt.Errorf("claim %s failed", c.ID)
			}
		}
		return nil
	case "report":
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed")
		out := fs.String("out", "", "output file (default stdout)")
		csvDir := fs.String("csv", "", "directory for per-run CSV exports")
		parallel := fs.Int("parallel", 0, "worker bound for multi-run experiments (<=0: GOMAXPROCS)")
		stateDir := fs.String("state-dir", "", "checkpoint the report experiment by experiment; a crashed report resumes from here")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		w := os.Stdout
		var progress *os.File
		var f *os.File
		if *out != "" {
			var err error
			if f, err = os.Create(*out); err != nil {
				return err
			}
			w = f
			progress = os.Stderr
		}
		// With a state dir, Ctrl-C leaves a resumable checkpoint (exit 3),
		// matching `wasched sweep run`. Without one there is nothing to
		// resume, so Ctrl-C stops the report as it stops `wasched run`.
		ctx := context.Background()
		if *stateDir != "" {
			var stop context.CancelFunc
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
			defer stop()
		}
		err := experiments.WriteFullReport(ctx, w, experiments.RunOptions{Seed: *seed, CSVDir: *csvDir,
			Farm: farm.Options{Workers: *parallel, StateDir: *stateDir}}, progress)
		if f != nil {
			// A close error on the written report means data may not have
			// reached disk; surface it unless the report itself failed.
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// runSweep dispatches the `wasched sweep` subcommands.
func runSweep(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: wasched sweep list|run|resume|status|clean ...")
	}
	switch args[0] {
	case "list":
		listExperiments()
		return nil
	case "run":
		return sweepRun(args[1:], false)
	case "resume":
		return sweepRun(args[1:], true)
	case "status":
		return sweepStatus(args[1:])
	case "clean":
		return sweepClean(args[1:])
	default:
		return fmt.Errorf("unknown sweep command %q (want list, run, resume, status or clean)", args[0])
	}
}

// sweepClean garbage-collects a state dir: corrupt cache entries, cache
// entries no journal references, and leftover .tmp files.
func sweepClean(args []string) error {
	fs := flag.NewFlagSet("sweep clean", flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "state directory to garbage-collect")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without touching anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep clean: unexpected arguments %v", fs.Args())
	}
	if *stateDir == "" {
		return fmt.Errorf("sweep clean needs -state-dir")
	}
	rep, err := farm.Clean(*stateDir, *dryRun)
	if err != nil {
		return err
	}
	for _, j := range rep.DamagedJournals {
		fmt.Printf("damaged journal: %s (orphan collection suppressed)\n", j)
	}
	for _, c := range rep.Corrupt {
		fmt.Printf("corrupt: %s\n", c)
	}
	for _, o := range rep.Orphaned {
		fmt.Printf("orphaned: %s\n", o)
	}
	for _, t := range rep.Temp {
		fmt.Printf("leftover: %s\n", t)
	}
	verb, total := "removed", rep.Removed
	if *dryRun {
		verb = "would remove"
		total = len(rep.Corrupt) + len(rep.Temp)
		if len(rep.DamagedJournals) == 0 {
			total += len(rep.Orphaned)
		}
	}
	fmt.Printf("sweep clean: scanned %d cache entries across %d journal(s), %s %d file(s)\n",
		rep.Scanned, len(rep.Journals), verb, total)
	return nil
}

// sweepFlags parses a sweep subcommand's flags, accepting them before or
// after the sweep name (as `wasched run` does).
type sweepFlags struct {
	name     string
	seed     uint64
	workers  int
	stateDir string
	maxCells int
	quiet    bool
}

func parseSweepFlags(cmd string, args []string) (*sweepFlags, error) {
	fs := flag.NewFlagSet("sweep "+cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "sweep seed (same seed → identical cells and results)")
	workers := fs.Int("workers", 0, "concurrent cell executions (<=0: GOMAXPROCS)")
	stateDir := fs.String("state-dir", "", "state directory for the result cache and checkpoint journal")
	maxCells := fs.Int("max-cells", 0, "stop after N fresh cells as if interrupted (testing resume; 0: off)")
	quiet := fs.Bool("quiet", false, "suppress the periodic progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return nil, fmt.Errorf("usage: wasched sweep %s <name> [-seed N] [-workers N] [-state-dir DIR] [-max-cells N] [-quiet]", cmd)
	}
	name := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("sweep %s: unexpected arguments %v", cmd, fs.Args())
	}
	return &sweepFlags{name: name, seed: *seed, workers: *workers,
		stateDir: *stateDir, maxCells: *maxCells, quiet: *quiet}, nil
}

// sweepRun executes (or resumes) an experiment under a state dir. Resume
// is the same operation re-run against the same state dir — cached cells
// are served from disk and only the remainder executes — but it insists
// on a state dir, because without one there is nothing to resume from.
func sweepRun(args []string, resume bool) error {
	cmd := "run"
	if resume {
		cmd = "resume"
	}
	f, err := parseSweepFlags(cmd, args)
	if err != nil {
		return err
	}
	if resume && f.stateDir == "" {
		return fmt.Errorf("sweep resume needs -state-dir (the directory of the interrupted run)")
	}
	if f.maxCells > 0 && f.stateDir == "" {
		return fmt.Errorf("sweep %s: -max-cells needs -state-dir (it stops the sweep as if interrupted, to resume from the state dir)", cmd)
	}
	e, ok := experiments.Lookup(f.name)
	if !ok {
		return fmt.Errorf("unknown sweep %q (try `wasched sweep list`)", f.name)
	}

	// With a state dir, Ctrl-C / SIGTERM cancels dispatch; in-flight cells
	// drain and journal before exit, so `sweep resume` picks up exactly the
	// remaining cells. Without one there is nothing to resume, so Ctrl-C
	// stops the sweep as it stops `wasched run`.
	ctx := context.Background()
	if f.stateDir != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	var progress io.Writer
	if !f.quiet {
		progress = os.Stderr
	}
	return e.Run(ctx, os.Stdout, experiments.RunOptions{Seed: f.seed,
		Farm: farm.Options{Workers: f.workers, StateDir: f.stateDir, Progress: progress, MaxFresh: f.maxCells}})
}

// sweepStatus reports a sweep's progress from its checkpoint journal.
func sweepStatus(args []string) error {
	fs := flag.NewFlagSet("sweep status", flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "read the checkpoint journal in this state directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := ""
	if rest := fs.Args(); len(rest) > 0 {
		name = rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("sweep status: unexpected arguments %v", fs.Args())
		}
	}
	if *stateDir == "" || name == "" {
		return fmt.Errorf("usage: wasched sweep status <name> -state-dir DIR")
	}
	st, err := farm.ReadStatus(*stateDir, name)
	if err != nil {
		return err
	}
	fmt.Printf("sweep %s: %d cells, %d done (%d cache hits, %d computed), %d failed, %d remaining (%d run(s), last event %s)\n",
		st.Name, st.Cells, st.Done, st.CacheHits, st.Computed, st.Failed, st.Remaining, st.Runs,
		st.LastEvent.Format("2006-01-02 15:04:05 MST"))
	fmt.Printf("  progress: %s\n", sweepProgress(st))
	for _, c := range st.FailedCells {
		fmt.Printf("  failed: %s\n", c)
	}
	if st.Remaining > 0 {
		fmt.Printf("resume with: wasched sweep resume %s -state-dir %s\n", st.Name, *stateDir)
	}
	return nil
}

// sweepProgress renders a status's completion fraction. A zero-cell sweep
// (a journal whose begin record counted no cells) has no meaningful
// fraction, so it renders n/a instead of dividing by zero.
func sweepProgress(st *farm.SweepStatus) string {
	if st.Cells <= 0 {
		return "n/a (no cells in the latest run)"
	}
	return fmt.Sprintf("%.1f%% complete", 100*float64(st.Done)/float64(st.Cells))
}

// listExperiments prints the one experiment list, for `list` and
// `sweep list` alike.
func listExperiments() {
	for _, e := range experiments.Experiments() {
		fmt.Printf("  %-22s %s\n", e.Name, e.Description)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `wasched — workload-adaptive I/O-aware scheduling experiments

commands:
  list                 list the experiments (sweep list prints the same)
  workloads            print the standard workloads' sizes
  run <name> [-seed N] [-csv DIR] [-parallel N]
                       run one experiment in memory and print its report
  replay <trace.swf[.gz]> [-policy P] [-nodes N] [-limit-gib G] [-checks]
         [-bb-capacity-gib G] [-bb-fraction F] [-bb-gib-per-node G]
                       stream an SWF archive trace through the lightweight
                       replayer and report scheduling throughput per policy;
                       the -bb-* flags emulate a shared burst-buffer pool
                       (assigning synthetic reservations to -bb-fraction of
                       jobs) for the plan and bb-io-aware policies
  sweep list           list the experiments (as list does)
  sweep run <name> [-seed N] [-workers N] [-state-dir DIR] [-max-cells N] [-quiet]
                       run an experiment and print what run prints; with a
                       state dir, finished cells are cached and Ctrl-C
                       leaves a resumable checkpoint (exit code 3);
                       -max-cells N stops after N fresh cells as if
                       interrupted, and needs a state dir
  sweep resume <name> -state-dir DIR
                       finish an interrupted sweep from its checkpoint
  sweep status <name> -state-dir DIR
                       summarise a sweep's checkpoint journal
  sweep clean -state-dir DIR [-dry-run]
                       garbage-collect corrupt, orphaned and leftover
                       cache files from a state directory
  report [-seed N] [-out FILE] [-csv DIR] [-parallel N] [-state-dir DIR]
                       run every figure and ablation grid and write one
                       full report; with a state dir it resumes like a sweep
                       (-csv needs an in-memory run, so not with -state-dir)
  verify [-seed N]     check the headline reproduction claims (exit 1 on failure)`)
}
