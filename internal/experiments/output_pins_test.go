package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/tbf"
	"wasched/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/output_pins.txt from the current code")

const outputPinsFile = "output_pins.txt"

// pinnedReports are the experiments whose full reports the output pins
// cover: Workload 1 and 2 under every scheduler configuration, and a
// failure-injection ablation that drives the pfs degradation hooks.
var pinnedReports = []string{"fig3", "fig5", "ablation-degradation"}

// outputPins runs every pinned experiment at seed 1 and returns one line
// per output: "<name> <sha256>".
func outputPins(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range pinnedReports {
		var buf bytes.Buffer
		if err := Registry()[name].Run(&buf, RunOptions{Seed: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(buf.Bytes())))
	}
	return append(lines, w2TBFPins(t)...)
}

// w2TBFPins runs the full prototype on Workload 2 under tbf-straggler
// tokens at seed 1, the configuration of the proto-w2-tbf benchmark
// workload, and digests what the pfs, token and monitoring layers leave
// behind: the job records, the sampled series, the closed token ledger
// and the exact bits of the file system's cumulative counters.
func w2TBFPins(t *testing.T) []string {
	t.Helper()
	opts := DefaultOptions(sched.TBFPolicy{TotalNodes: Nodes, Straggler: true}, 1)
	opts.TBF = tbf.Config{CapacityBytesPerSec: 10 * pfs.GiB, Straggler: true}
	specs := workload.Workload2()
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Pretrain(sys, specs); err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAll(specs); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
		t.Fatal(err)
	}
	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

	jobs := sha256.New()
	for _, j := range sys.Recorder.Jobs() {
		fmt.Fprintf(jobs, "%+v\n", j)
	}
	series := sha256.New()
	if err := sys.Recorder.WriteCSV(series); err != nil {
		t.Fatal(err)
	}
	ledger := sha256.New()
	for _, e := range sys.TBF.Ledger() {
		fmt.Fprintf(ledger, "%+v\n", e)
	}
	c := sys.FS.TotalCounters()
	counters := sha256.New()
	fmt.Fprintf(counters, "%x %x %d %d\n",
		math.Float64bits(c.WriteBytes), math.Float64bits(c.ReadBytes), c.WriteOps, c.ReadOps)
	return []string{
		"w2-tbf-jobs " + sum(jobs),
		"w2-tbf-series " + sum(series),
		"w2-tbf-ledger " + sum(ledger),
		"w2-tbf-pfs-totals " + sum(counters),
	}
}

// TestOutputPins holds the full prototype to the outputs it produced when
// the pins were recorded. Every change that claims "no output changes"
// — a faster pfs solver, token layer or monitoring path — must leave
// testdata/output_pins.txt untouched. After a deliberate output change,
// regenerate with `go test ./internal/experiments -run TestOutputPins
// -update-pins` and justify the diff.
func TestOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig3, fig5, an ablation and a Workload 2 token run")
	}
	got := outputPins(t)
	path := filepath.Join("testdata", outputPinsFile)
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pins computed, %d recorded in %s", len(got), len(want), path)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pin %d changed:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
