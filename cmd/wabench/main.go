// Command wabench is the repository's end-to-end benchmark: the full
// prototype on the paper's Workloads 1 and 2, and the archive-trace
// replay path, each measured end to end and, in a traced run, layer by
// layer. README.md lists the workloads and metrics.
//
// Usage, from the repository root (run.sh builds it and passes its
// arguments on):
//
//	bash cmd/wabench/run.sh [--workload NAME|all] [--seed N] [--seconds S]
//	                        [--trace 0|1] [--out FILE] [--profdir DIR]
//	bash cmd/wabench/run.sh compare A.jsonl B.jsonl
//
// Each workload runs one untimed warm-up rep, then timed reps back to back
// for --seconds (at least three). End-to-end metrics are medians over the
// timed reps. --trace 1 adds two traced reps and prints the per-layer
// metrics instead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The metric names, units,
// directions and bounds come from BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareCmd(os.Args[2:])
	} else {
		err = runCmd(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wabench:", err)
		os.Exit(1)
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// metricValue is a metric as the last output line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the closing JSON object of a run.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("wabench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 15, "how long the timed reps run")
	traceFlag := fs.Int("trace", 0, "1: add the traced run and print per-layer metrics")
	out := fs.String("out", "", "append each workload's result to this JSON-lines file")
	profDir := fs.String("profdir", "", "keep the traced run's profiles in this directory")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("usage: wabench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--profdir DIR]")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workloadDef{w}
	}
	// The simulation is single-threaded. A second P only runs GC workers
	// beside it, and on a 2-vCPU VM that made reps slower and their times
	// noisier, so the benchmark measures on one.
	runtime.GOMAXPROCS(1)
	s := settings{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, profDir: *profDir}
	metrics := spec.EndToEnd
	if s.traced {
		metrics = spec.PerLayer
	}

	final := lastLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := measure(w, s)
		if err != nil {
			return err
		}
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, p)
		}
		if err := printTable(res, metrics); err != nil {
			return err
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return err
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for _, m := range metrics {
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "/" + m.Name
			}
			final.Metrics[key] = metricValue{res.Metrics[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printTable prints a result's metrics, failing on any the benchmark
// definition names but the run did not measure.
func printTable(res *result, metrics []metricSpec) error {
	fmt.Printf("%s  seed %d  correct %v  jobs %d attempted, %d failed\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	fmt.Printf("  %-28s %-8s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is not measured", res.Workload, m.Name)
		}
		fmt.Printf("  %-28s %-8s %14.6g %14.6g %14.6g %3d\n", m.Name, m.Unit, v.Median, v.Q1, v.Q3, v.N)
	}
	return nil
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
