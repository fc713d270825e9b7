package experiments

import (
	"bufio"
	"bytes"
	"context"
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
	"wasched/internal/slurm"
	"wasched/internal/tbf"
	"wasched/internal/workload"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/output_pins.txt from the current code")

const outputPinsFile = "output_pins.txt"

// pinnedReports are the experiments whose full reports the output pins
// cover: every experiment of the full report (`wasched report`), each at
// its full cell set. The first seven were pinned first; the rest follow
// in report order.
var pinnedReports = []string{
	"fig3", "fig5", "ablation-degradation",
	"ablation-guard", "ablation-licenses", "ablation-submission", "ablation-backfill",
	"fig4", "fig6", "ablation-burstbuffer", "ablation-bursty", "ablation-checkpoint",
	"ablation-ordering", "ablation-plateau", "ablation-qos", "ablation-tokenbucket",
	"ablation-two-group", "sweep-limit",
}

// outputPins runs every pinned experiment at seed 1 and returns one line
// per output: "<name> <sha256>".
func outputPins(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range pinnedReports {
		var buf bytes.Buffer
		if err := mustLookup(t, name).Run(context.Background(), &buf, RunOptions{Seed: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(buf.Bytes())))
	}
	lines = append(lines, w2TBFPins(t)...)
	return append(lines, w1AdaptivePins(t)...)
}

// runProto runs the full prototype on specs, pre-trained and submitted
// at t=0, as the proto-* benchmark workloads do.
func runProto(t *testing.T, opts Options, specs []slurm.JobSpec) *System {
	t.Helper()
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
	return sys
}

func digest(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// recorderPins digests a finished run's job records and sampled series.
func recorderPins(t *testing.T, prefix string, sys *System) []string {
	t.Helper()
	jobs := sha256.New()
	for _, j := range sys.Recorder.Jobs() {
		fmt.Fprintf(jobs, "%+v\n", j)
	}
	series := sha256.New()
	if err := sys.Recorder.WriteCSV(series); err != nil {
		t.Fatal(err)
	}
	return []string{prefix + "-jobs " + digest(jobs), prefix + "-series " + digest(series)}
}

// w1AdaptivePins runs the full prototype on Workload 1 under the
// two-group adaptive policy at 20 GiB/s and seed 1, the configuration of
// the proto-w1-adaptive benchmark workload, and digests its job records
// and sampled series (the adaptive target among them).
func w1AdaptivePins(t *testing.T) []string {
	t.Helper()
	policy := sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}
	return recorderPins(t, "w1-adaptive", runProto(t, DefaultOptions(policy, 1), workload.Workload1()))
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
	sys := runProto(t, opts, workload.Workload2())
	ledger := sha256.New()
	for _, e := range sys.TBF.Ledger() {
		fmt.Fprintf(ledger, "%+v\n", e)
	}
	c := sys.FS.TotalCounters()
	counters := sha256.New()
	fmt.Fprintf(counters, "%x %x %d %d\n",
		math.Float64bits(c.WriteBytes), math.Float64bits(c.ReadBytes), c.WriteOps, c.ReadOps)
	return append(recorderPins(t, "w2-tbf", sys),
		"w2-tbf-ledger "+digest(ledger),
		"w2-tbf-pfs-totals "+digest(counters))
}

// TestOutputPins holds the full prototype to the outputs it produced when
// the pins were recorded. Every change that claims "no output changes"
// — a faster pfs solver, token layer or monitoring path — must leave
// testdata/output_pins.txt untouched. After a deliberate output change,
// regenerate with `go test ./internal/experiments -run TestOutputPins
// -update-pins` and justify the diff.
func TestOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every report experiment and two full-prototype runs")
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
