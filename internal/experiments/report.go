package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wasched/internal/farm"
	"wasched/internal/schedcheck"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

// WriteFullReport runs every experiment of reportOrder and writes a single
// plain-text report: the `wasched report` command. Each experiment runs
// as one farm call with opts, exactly as `wasched run` runs it, so with
// opts.Farm.StateDir set a crashed or cancelled report serves the
// finished cells from the cache and recomputes only the rest
// (cancellation surfaces as farm.ErrInterrupted, the CLI's resumable
// exit). Wall-clock progress goes to progress (nil discards it).
func WriteFullReport(ctx context.Context, w io.Writer, opts RunOptions, progress io.Writer) error {
	exps := make([]Experiment, 0, len(reportOrder()))
	for _, name := range reportOrder() {
		e, _ := Lookup(name)
		exps = append(exps, e)
	}
	return writeReport(ctx, w, exps, opts, progress)
}

func writeReport(ctx context.Context, w io.Writer, exps []Experiment, opts RunOptions, progress io.Writer) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if progress == nil {
		progress = io.Discard
	}
	fmt.Fprintf(w, "wasched full experiment report (seed %d)\n", opts.Seed)
	fmt.Fprintf(w, "%s\n\n", repeat('=', 72))
	for _, e := range exps {
		fmt.Fprintf(w, "\n%s\n%s — %s\n%s\n\n", repeat('-', 72), e.Name, e.Description, repeat('-', 72))
		start := time.Now()
		if err := e.Run(ctx, w, opts); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		fmt.Fprintf(progress, "%-22s done in %s\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// exportCSV writes a run's sampled series and per-job records when a CSV
// directory was requested.
func exportCSV(dir string, res *RunResult) error {
	if dir == "" || res.Recorder == nil {
		return nil // replay-backed rows carry no sampled series
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, strings.SplitN(res.Label, ":", 2)[0])
	series, err := os.Create(filepath.Join(dir, slug+"-series.csv"))
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteCSV(series); err != nil {
		series.Close()
		return err
	}
	if err := series.Close(); err != nil {
		return err
	}
	jobs, err := os.Create(filepath.Join(dir, slug+"-jobs.csv"))
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteJobsCSV(jobs); err != nil {
		jobs.Close()
		return err
	}
	return jobs.Close()
}

// panelDigest is the cached digest of one Fig. 3/5 panel: its table row,
// its soft validator findings (hard violations fail the run inside
// RunWorkload) and its two plots, Lustre throughput over node allocation,
// as the paper draws them.
type panelDigest struct {
	Label      string   `json:"label"`
	Makespan   float64  `json:"makespan_s"`
	BusyNodes  float64  `json:"busy_nodes"`
	Throughput float64  `json:"throughput_gib_s"`
	MedianWait float64  `json:"median_wait_s"`
	Bsld       float64  `json:"bounded_slowdown"`
	Warnings   []string `json:"warnings,omitempty"`
	Plots      string   `json:"plots"`
}

func digestPanel(res *RunResult) panelDigest {
	d := panelDigest{
		Label:      res.Label,
		Makespan:   res.Makespan,
		BusyNodes:  res.MeanBusyNodes,
		Throughput: res.MeanThroughput,
		MedianWait: res.MedianWait,
		Bsld:       res.Sched.MeanBoundedSlowdown,
		Plots: fmt.Sprintf("--- %s ---\n%s%s\n", res.Label,
			trace.Plot(&res.Recorder.Throughput, 100, 8), trace.Plot(&res.Recorder.BusyNodes, 100, 5)),
	}
	for _, v := range res.Invariants.Warnings {
		d.Warnings = append(d.Warnings, fmt.Sprintf("warning [%s] %s: %s", res.Label, v.Invariant, v.Detail))
	}
	return d
}

// reportPanels renders Fig. 3/5 panels: the table (each makespan against
// the first panel's), the warnings and the plots. A figure's report
// carries a title and the column header; a single panel's prints its row
// bare.
func reportPanels(title string) func(io.Writer, uint64, *farm.Summary) error {
	return func(w io.Writer, _ uint64, sum *farm.Summary) error {
		panels := make([]panelDigest, len(sum.Outcomes))
		for i := range sum.Outcomes {
			if err := sum.Outcomes[i].Decode(&panels[i]); err != nil {
				return err
			}
		}
		if title != "" {
			fmt.Fprintf(w, "=== %s ===\n\n", title)
			fmt.Fprintf(w, "%-45s %12s %9s %6s %9s %10s %8s\n",
				"configuration", "makespan[s]", "vs base", "busy", "tp[GiB/s]", "wait[s]", "bsld")
		}
		for _, p := range panels {
			vs := "-"
			if base := panels[0].Makespan; base > 0 && p.Makespan != base {
				vs = fmt.Sprintf("%+.1f%%", 100*(p.Makespan-base)/base)
			}
			fmt.Fprintf(w, "%-45s %12.0f %9s %6.2f %9.2f %10.0f %8.1f\n",
				p.Label, p.Makespan, vs, p.BusyNodes, p.Throughput, p.MedianWait, p.Bsld)
		}
		for _, p := range panels {
			for _, warning := range p.Warnings {
				fmt.Fprintln(w, warning)
			}
		}
		if title != "" {
			fmt.Fprintln(w)
		}
		for _, p := range panels {
			fmt.Fprint(w, p.Plots)
		}
		return nil
	}
}

// AblationDigest is the cacheable summary of one ablation table row: the
// numbers the table renders, without the run's recorders (use `wasched
// run <grid> -csv` for the full series).
type AblationDigest struct {
	Label           string  `json:"label"`
	Makespan        float64 `json:"makespan_s"`
	VsBase          float64 `json:"vs_base"`
	Busy            float64 `json:"busy_nodes"`
	Throughput      float64 `json:"throughput_gib_s"`
	IdleNodeSeconds float64 `json:"idle_node_s"`
	Timeouts        int     `json:"timeouts"`
	Extra           string  `json:"extra,omitempty"`
}

// DigestAblation reduces full ablation rows to their table digests.
func DigestAblation(rows []AblationRow) []AblationDigest {
	out := make([]AblationDigest, len(rows))
	for i, r := range rows {
		out[i] = AblationDigest{
			Label:           r.Label,
			Makespan:        r.Result.Makespan,
			VsBase:          r.VsBase,
			Busy:            r.Result.MeanBusyNodes,
			Throughput:      r.Result.MeanThroughput,
			IdleNodeSeconds: r.Result.IdleNodeSeconds,
			Timeouts:        r.Result.Timeouts,
			Extra:           r.Extra,
		}
	}
	return out
}

// reportAblations renders one ablation table per cell, under a banner
// naming the grid when banners is set.
func reportAblations(banners bool) func(io.Writer, uint64, *farm.Summary) error {
	return func(w io.Writer, _ uint64, sum *farm.Summary) error {
		descriptions := make(map[string]string)
		for _, g := range AblationGrids() {
			descriptions[g.Name] = g.Description
		}
		for i, o := range sum.Outcomes {
			var rows []AblationDigest
			if err := o.Decode(&rows); err != nil {
				return err
			}
			if banners {
				if i > 0 {
					fmt.Fprintln(w)
				}
				fmt.Fprintf(w, "=== %s: %s ===\n\n", o.Cell.Config, descriptions[o.Cell.Config])
			}
			PrintAblation(w, rows)
		}
		return nil
	}
}

// PrintAblation renders an ablation comparison table.
func PrintAblation(w io.Writer, rows []AblationDigest) {
	fmt.Fprintf(w, "%-48s %12s %9s %6s %9s %12s %8s\n",
		"configuration", "makespan[s]", "vs base", "busy", "tp[GiB/s]", "idle[node-s]", "timeouts")
	for i, r := range rows {
		vs := "-"
		if i > 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*r.VsBase)
		}
		fmt.Fprintf(w, "%-48s %12.0f %9s %6.2f %9.2f %12.0f %8d",
			r.Label, r.Makespan, vs, r.Busy, r.Throughput, r.IdleNodeSeconds, r.Timeouts)
		if r.Extra != "" {
			fmt.Fprintf(w, "  %s", r.Extra)
		}
		fmt.Fprintln(w)
	}
}

// PrintFig4 renders the Fig. 4 box-plot table and median bars.
func PrintFig4(w io.Writer, points []Fig4Point) {
	fmt.Fprintln(w, "=== Fig. 4: Lustre total throughput vs concurrent write×8 jobs (GiB/s) ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%5s %8s %8s %8s %8s %8s %5s\n", "jobs", "min", "q1", "median", "q3", "max", "n")
	for _, p := range points {
		b := p.Box
		fmt.Fprintf(w, "%5d %8.2f %8.2f %8.2f %8.2f %8.2f %5d\n",
			p.Jobs, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "medians as bars:")
	maxMed := 0.0
	for _, p := range points {
		if p.Box.Median > maxMed {
			maxMed = p.Box.Median
		}
	}
	for _, p := range points {
		bar := 0
		if maxMed > 0 {
			bar = int(p.Box.Median / maxMed * 60)
		}
		fmt.Fprintf(w, "%3d | %-60s %6.2f\n", p.Jobs, repeat('#', bar), p.Box.Median)
	}
}

func repeat(c byte, n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

// PrintFig6 renders the Fig. 6 summary table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "=== Fig. 6: Workload 2 makespans over repeats (seconds) ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-40s %10s %9s %21s %7s %6s  %s\n",
		"configuration", "median", "vs base", "95% CI of median", "p", "busy", "samples")
	for i, r := range rows {
		vs := "-"
		if r.VsBase != 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*r.VsBase)
		}
		pv := "-"
		if i > 0 {
			pv = fmt.Sprintf("%.3f", r.PValue)
		}
		fmt.Fprintf(w, "%-40s %10.0f %9s [%9.0f,%9.0f] %7s %6.2f  ",
			r.Variant.Label, r.Swarm.Median, vs, r.BootLo, r.BootHi, pv, r.MeanBusy)
		for _, v := range r.Swarm.Values {
			fmt.Fprintf(w, "%.0f ", v)
		}
		fmt.Fprintln(w)
	}
}

func reportCorpus(w io.Writer, _ uint64, sum *farm.Summary) error {
	fmt.Fprintln(w, "=== schedcheck differential corpus ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %6s %6s %9s %9s\n", "kind", "seed", "jobs", "checked", "warnings")
	jobs, checked := 0, 0
	for _, o := range sum.Outcomes {
		var p schedcheck.CorpusPayload
		if err := o.Decode(&p); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %6d %6d %9d %9d\n", p.Kind, p.Seed, p.Jobs, p.JobsChecked, p.Warnings)
		jobs += p.Jobs
		checked += p.JobsChecked
	}
	fmt.Fprintf(w, "\n%d workloads, %d jobs generated, %d job records validated; all invariants held\n",
		len(sum.Outcomes), jobs, checked)
	return nil
}

// WorkloadSizes reports the job counts of the standard workloads (sanity
// output for the CLI).
func WorkloadSizes() string {
	return fmt.Sprintf("workload1=%d jobs, workload2=%d jobs, mixed=%d jobs",
		len(workload.Workload1()), len(workload.Workload2()), len(workload.Mixed()))
}
