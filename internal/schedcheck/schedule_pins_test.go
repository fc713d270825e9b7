package schedcheck

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasched/internal/des"
	"wasched/internal/sched"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/schedule_pins.txt from the current code")

const pinsFile = "schedule_pins.txt"

// pinVariant is one policy composition the schedule pins cover.
type pinVariant struct {
	label  string
	policy sched.Policy
	limit  float64
	bb     bool // burst-buffer composition: runs on HasBB kinds only
}

// pinVariants lists every composition of the reservation model: the
// single-resource policies, the two wrappers that pass a model through
// (tetris+, tbf+), and the burst-buffer extensions (plan, bb+).
func pinVariants(nodes int, limit, capacity float64) []pinVariant {
	node := sched.NodePolicy{TotalNodes: nodes}
	io := sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}
	adaptive := sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}
	naive := sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit}
	return []pinVariant{
		{"default", node, 0, false},
		{"io-aware", io, limit, false},
		{"adaptive", adaptive, limit, false},
		{"adaptive-naive", naive, limit, false},
		{"tetris+io-aware", sched.TetrisPolicy{Inner: io, TotalNodes: nodes, ThroughputLimit: limit}, limit, false},
		{"tbf+adaptive", sched.TBFAwarePolicy{Inner: adaptive}, limit, false},
		{"plan", sched.PlanPolicy{TotalNodes: nodes, BBCapacity: capacity, ThroughputLimit: limit}, limit, true},
		{"plan-nolimit-1h", sched.PlanPolicy{TotalNodes: nodes, BBCapacity: capacity, Horizon: des.Hour}, 0, true},
		{"bb+default", sched.BBAwarePolicy{Inner: node, Capacity: capacity}, 0, true},
		{"bb+io-aware", sched.BBAwarePolicy{Inner: io, Capacity: capacity}, limit, true},
		{"bb+adaptive", sched.BBAwarePolicy{Inner: adaptive, Capacity: capacity}, limit, true},
	}
}

// schedulePins replays the corpus through every pin variant on both the
// incremental and the from-scratch path and returns one line per run:
// "<kind> <seed> <variant> <path> <sha256 of scheduleDigest>".
func schedulePins() []string {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	var lines []string
	for _, kind := range Kinds() {
		for _, seed := range CorpusSeeds() {
			workload := Generate(kind, seed, nodes, limit)
			for _, v := range pinVariants(nodes, limit, CorpusBBCapacity) {
				if v.bb && !kind.HasBB() {
					continue
				}
				cfg := ReplayConfig{
					Policy:  v.policy,
					Options: sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
					Nodes:   nodes,
					Limit:   v.limit,
				}
				if kind.HasBB() {
					cfg.BBCapacity = CorpusBBCapacity
					cfg.BBStageRate = CorpusBBStageRate
					cfg.BBDrainRate = CorpusBBDrainRate
				}
				if kind.HasTBF() && strings.HasPrefix(v.label, "tbf+") {
					cfg.TBFCapacity = CorpusTBFCapacity
					cfg.TBFServers = CorpusTBFServers
				}
				for _, path := range []struct {
					name   string
					replay func([]SimJob, ReplayConfig) *ReplayResult
				}{{"Replay", Replay}, {"replayReference", replayReference}} {
					sum := sha256.Sum256([]byte(scheduleDigest(path.replay(workload, cfg))))
					lines = append(lines, fmt.Sprintf("%s %d %s %s %x", kind, seed, v.label, path.name, sum))
				}
			}
		}
	}
	return lines
}

// TestSchedulePins holds both replay paths to the absolute schedules they
// produced when the pins were recorded. TestReplayMatchesReference* only
// compares the two paths with each other, so a drift in round code they
// share would pass it; this test catches that. After a deliberate
// schedule change, regenerate with `go test ./internal/schedcheck -run
// TestSchedulePins -update-pins` and justify the diff.
func TestSchedulePins(t *testing.T) {
	got := schedulePins()
	path := filepath.Join("testdata", pinsFile)
	if *updatePins {
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
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("pin %d changed:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d schedule pins changed", bad, len(got))
	}
}
