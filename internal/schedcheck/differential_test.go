package schedcheck

import (
	"context"
	"fmt"
	"testing"

	"wasched/internal/des"
	"wasched/internal/farm"
	"wasched/internal/pfs"
	"wasched/internal/sched"
)

const (
	testNodes = 16
	testLimit = 20 * pfs.GiB
)

// TestDifferentialCorpus replays every workload kind under five seeds —
// thirty seeded workloads — through all four policies (plus the unbounded
// baseline) and requires every per-round invariant, schedule invariant and
// metamorphic property to hold. The corpus runs through the farm
// orchestrator (one cell per workload, panic-isolated, parallel across
// GOMAXPROCS), the same path `wasched sweep run schedcheck` takes.
func TestDifferentialCorpus(t *testing.T) {
	cells := CorpusCells("schedcheck-test", CorpusSeeds())
	if len(cells) < 20 {
		t.Fatalf("differential corpus holds %d workloads, want >= 20", len(cells))
	}
	sum, err := farm.Run(context.Background(), "schedcheck-test", cells,
		CorpusExec(testNodes, testLimit), farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sum.Outcomes {
		if o.Status != farm.StatusDone {
			t.Errorf("%s: %s", o.Cell, o.Err)
			continue
		}
		var p CorpusPayload
		if err := o.Decode(&p); err != nil {
			t.Fatal(err)
		}
		want := len(PolicyLabels())
		if WorkloadKind(p.Kind).HasBB() {
			want += len(BBPolicyLabels())
		}
		if WorkloadKind(p.Kind).HasTBF() {
			want += len(TBFPolicyLabels())
		}
		if p.Jobs == 0 || len(p.Makespans) != want {
			t.Fatalf("%s: degenerate payload %+v", o.Cell, p)
		}
	}
	if sum.Done != len(cells) {
		t.Fatalf("corpus completed %d of %d cells", sum.Done, len(cells))
	}
}

// TestDifferentialWindowedOptions repeats a slice of the corpus under
// EASY backfill and the Slurm default window, so the metamorphic properties
// are not an artifact of unlimited backfill.
func TestDifferentialWindowedOptions(t *testing.T) {
	opts := []sched.Options{
		{BackfillMax: sched.EASY},
		{MaxJobTest: sched.SlurmDefaultTestLimit},
		{BackfillMax: 4, MaxJobTest: 20},
	}
	for _, kind := range []WorkloadKind{KindRandom, KindHomogeneous, KindZeroRate} {
		for i, o := range opts {
			kind, o := kind, o
			t.Run(fmt.Sprintf("%s/opts-%d", kind, i), func(t *testing.T) {
				t.Parallel()
				w := Generate(kind, 7, testNodes, testLimit)
				res := RunDifferential(w, DiffConfig{Nodes: testNodes, Limit: testLimit, Options: o})
				if err := res.Check.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGenerateDeterministic pins the generator: the same (kind, seed) must
// yield the same workload, and different seeds must not.
func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a := Generate(kind, 42, testNodes, testLimit)
		b := Generate(kind, 42, testNodes, testLimit)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ across identical seeds: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: job %d differs across identical seeds: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
	a := Generate(KindRandom, 1, testNodes, testLimit)
	b := Generate(KindRandom, 2, testNodes, testLimit)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("KindRandom: seeds 1 and 2 produced identical workloads")
	}
}

// TestReplayQueueOfOne pins the degenerate single-job queue on every policy.
func TestReplayQueueOfOne(t *testing.T) {
	w := []SimJob{{ID: "only", Fingerprint: "only", Nodes: testNodes,
		Limit: 60 * 1000 * 1000 * 60, Actual: 60 * 1000 * 1000, Rate: testLimit / 2, EstRate: testLimit / 2}}
	res := RunDifferential(w, DiffConfig{Nodes: testNodes, Limit: testLimit})
	if err := res.Check.Err(); err != nil {
		t.Fatal(err)
	}
	for _, label := range PolicyLabels() {
		if got := len(res.Results[label].Jobs); got != 1 {
			t.Fatalf("policy %s completed %d jobs, want 1", label, got)
		}
	}
}

// TestCompareStartsSeesUnfinishedJobs compares a replay stopped at
// MaxRounds with one that drains: a job the starved replay started but
// never finished counts as started, at its start time, and only the jobs
// it never started are reported.
func TestCompareStartsSeesUnfinishedJobs(t *testing.T) {
	w := []SimJob{
		{ID: "long", Nodes: testNodes, Limit: 10 * des.Hour, Actual: 5 * des.Hour},
		{ID: "next", Nodes: testNodes, Limit: des.Hour, Actual: des.Hour, Submit: 60 * des.Time(des.Second)},
	}
	res := &DiffResult{Results: map[string]*ReplayResult{
		"starved": Replay(w, ReplayConfig{Policy: sched.NodePolicy{TotalNodes: testNodes}, Nodes: testNodes, MaxRounds: 100}),
		"full":    Replay(w, ReplayConfig{Policy: sched.NodePolicy{TotalNodes: testNodes}, Nodes: testNodes}),
	}}
	compareStarts(res, "starved", "full", "m")
	var got []string
	for _, v := range res.Check.Violations {
		got = append(got, v.Detail)
	}
	want := []string{"job next started under full at t=18000.000000s but never under starved"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("report %q, want %q", got, want)
	}
}
