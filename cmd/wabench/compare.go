package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// compareCmd implements `wabench compare A.jsonl B.jsonl`: each file holds
// the results of several invocations (written with --out), and B is judged
// against A metric by metric and workload by workload. It fails when a
// metric regressed or a run was incorrect.
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: wabench compare [--spec BENCHMARK.json] A.jsonl B.jsonl")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-26s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B wins", "verdict")
	failed := false
	for _, w := range sortedKeys(a) {
		if _, ok := b[w]; !ok {
			continue
		}
		for _, side := range []map[string]*runs{a, b} {
			if bad := side[w].incorrect; bad > 0 {
				fmt.Printf("%-22s %d incorrect run(s)\n", w, bad)
				failed = true
			}
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			va, vb := a[w].values[m.Name], b[w].values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			wins, pairs := pairWins(va, vb, m.Better == "higher")
			v := "-"
			if m.Bound != nil {
				v = verdict(va, vb, m.Better == "higher", *m.Bound)
			}
			failed = failed || v == "regressed"
			fmt.Printf("%-22s %-26s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %2d/%-3d  %s\n",
				w, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, wins, pairs, v)
		}
	}
	if failed {
		return errors.New("B regressed or was incorrect")
	}
	return nil
}

// runs collects one workload's invocations from a results file: each
// metric's per-invocation median, in file order.
type runs struct {
	values    map[string][]float64
	incorrect int
}

func readResults(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		w := out[r.Workload]
		if w == nil {
			w = &runs{values: map[string][]float64{}}
			out[r.Workload] = w
		}
		if !r.Correct {
			w.incorrect++
		}
		for name, s := range r.Metrics {
			w.values[name] = append(w.values[name], s.Median)
		}
	}
	return out, sc.Err()
}

// pairWins counts the index-paired runs in which B reads better than A;
// ties count for neither side.
func pairWins(a, b []float64, higherBetter bool) (wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i], higherBetter) {
			wins++
		}
	}
	return wins, pairs
}

func better(x, y float64, higherBetter bool) bool {
	if higherBetter {
		return x > y
	}
	return x < y
}

// verdict judges B against A by the rule of the choosing-metrics guide.
// B improved when it wins at least nine tenths of the pairs and its median
// is better than A's by more than A's interquartile range. Otherwise, when
// A's own spread is wider than the bound, the metric is unresolved unless
// every run of B reads better than every run of A. B regressed when its
// median is worse than A's by more than the bound, as a share of A's.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	sa, sb := summarize(a), summarize(b)
	wins, pairs := pairWins(a, b, higherBetter)
	if pairs > 0 && wins*10 >= pairs*9 && better(sb.Median, sa.Median, higherBetter) &&
		abs(sb.Median-sa.Median) > sa.Q3-sa.Q1 {
		return "improved"
	}
	if sa.spread() > bound && !allBetter(a, b, higherBetter) {
		return "unresolved"
	}
	worse := sb.Median - sa.Median
	if higherBetter {
		worse = -worse
	}
	if worse > bound*abs(sa.Median) {
		return "regressed"
	}
	return "unchanged"
}

func allBetter(a, b []float64, higherBetter bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y, higherBetter) {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
