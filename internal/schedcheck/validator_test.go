package schedcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/trace"
)

func jt(id string, nodes int, submit, start, end float64) trace.JobTrace {
	return trace.JobTrace{ID: id, Fingerprint: id, Nodes: nodes,
		Submit: submit, Start: start, End: end, Limit: end - start + 100}
}

func wantViolation(t *testing.T, res Result, invariant string) {
	t.Helper()
	for _, v := range res.Violations {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", invariant, res.Violations)
}

func wantClean(t *testing.T, res Result) {
	t.Helper()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateJobsClean(t *testing.T) {
	jobs := []trace.JobTrace{
		jt("a", 4, 0, 0, 100),
		jt("b", 4, 0, 0, 50),
		jt("c", 8, 10, 100, 200), // starts the instant a's and b's nodes free up
	}
	res := ValidateJobs(jobs, ValidateOptions{Nodes: 8})
	wantClean(t, res)
	if res.JobsChecked != 3 {
		t.Fatalf("JobsChecked = %d, want 3", res.JobsChecked)
	}
}

func TestValidateJobsStartBeforeSubmit(t *testing.T) {
	res := ValidateJobs([]trace.JobTrace{jt("a", 1, 100, 50, 200)}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "submit-before-start")
}

func TestValidateJobsEndBeforeStart(t *testing.T) {
	j := jt("a", 1, 0, 100, 40)
	j.Limit = 500
	res := ValidateJobs([]trace.JobTrace{j}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "start-before-end")
}

func TestValidateJobsLimitOverrun(t *testing.T) {
	j := jt("a", 1, 0, 0, 1000)
	j.Limit = 600
	res := ValidateJobs([]trace.JobTrace{j}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "limit-respected")
}

func TestValidateJobsOversubscription(t *testing.T) {
	jobs := []trace.JobTrace{
		jt("a", 5, 0, 0, 100),
		jt("b", 4, 0, 50, 150), // overlaps a: 9 nodes on an 8-node cluster
	}
	res := ValidateJobs(jobs, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "node-capacity")
	// The same schedule on a big enough cluster is fine.
	wantClean(t, ValidateJobs(jobs, ValidateOptions{Nodes: 9}))
}

func TestValidateJobsBackToBackIsNotOverlap(t *testing.T) {
	// End at t and start at t on the same nodes must not count as overlap.
	jobs := []trace.JobTrace{
		jt("a", 8, 0, 0, 100),
		jt("b", 8, 0, 100, 200),
	}
	wantClean(t, ValidateJobs(jobs, ValidateOptions{Nodes: 8}))
}

func TestValidateJobsClassOrder(t *testing.T) {
	a := jt("a", 2, 0, 90, 120)
	b := jt("b", 2, 10, 30, 60) // identical class, submitted later, started earlier
	b.Fingerprint = a.Fingerprint
	b.Limit = a.Limit
	res := ValidateJobs([]trace.JobTrace{a, b}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "fifo-class-order")
	// Different classes may reorder freely (that's what backfill is for).
	b.Nodes = 1
	wantClean(t, ValidateJobs([]trace.JobTrace{a, b}, ValidateOptions{Nodes: 8}))
}

func TestValidateJobsSkipsNeverStarted(t *testing.T) {
	cancelled := trace.JobTrace{ID: "c", Fingerprint: "c", Nodes: 4, Submit: 10}
	res := ValidateJobs([]trace.JobTrace{cancelled}, ValidateOptions{Nodes: 8})
	wantClean(t, res)
	if res.JobsChecked != 0 {
		t.Fatalf("JobsChecked = %d for a never-started job, want 0", res.JobsChecked)
	}
}

func TestValidateJobsNonPositiveNodes(t *testing.T) {
	res := ValidateJobs([]trace.JobTrace{jt("a", 0, 0, 10, 20)}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "positive-nodes")
}

// jtOn builds a job trace carrying its allocated node names.
func jtOn(id string, submit, start, end float64, nodes ...string) trace.JobTrace {
	j := jt(id, len(nodes), submit, start, end)
	j.NodesUsed = nodes
	return j
}

func TestValidateJobsNodeIdentityClean(t *testing.T) {
	jobs := []trace.JobTrace{
		jtOn("a", 0, 0, 100, "n1", "n2"),
		jtOn("b", 0, 0, 100, "n3"),
		jtOn("c", 0, 100, 200, "n1"), // back-to-back on n1: not an overlap
	}
	wantClean(t, ValidateJobs(jobs, ValidateOptions{Nodes: 4}))
}

func TestValidateJobsNodeDoubleBooked(t *testing.T) {
	// 3 nodes in use at any instant on an 8-node cluster — the count-based
	// capacity sweep is blind to this, only the name-based check sees it.
	jobs := []trace.JobTrace{
		jtOn("a", 0, 0, 100, "n1", "n2"),
		jtOn("b", 0, 50, 150, "n2"),
	}
	res := ValidateJobs(jobs, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "node-double-booked")
}

func TestValidateJobsNodeDoubleBookedLongHold(t *testing.T) {
	// The overlap is against an earlier long-running hold, not the
	// immediately preceding interval in start order.
	jobs := []trace.JobTrace{
		jtOn("long", 0, 0, 1000, "n1"),
		jtOn("early", 0, 10, 20, "n2"),
		jtOn("late", 0, 500, 600, "n1"),
	}
	res := ValidateJobs(jobs, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "node-double-booked")
}

func TestValidateJobsNodeAssignmentArity(t *testing.T) {
	j := jt("a", 3, 0, 0, 100)
	j.NodesUsed = []string{"n1", "n2"} // requested 3, holds 2
	res := ValidateJobs([]trace.JobTrace{j}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "node-assignment-identity")

	dup := jtOn("b", 0, 0, 100, "n1", "n1")
	res = ValidateJobs([]trace.JobTrace{dup}, ValidateOptions{Nodes: 8})
	wantViolation(t, res, "node-assignment-identity")
}

func TestValidateJobsNamelessTracesSkipIdentityCheck(t *testing.T) {
	// Replay traces carry no node names; the identity checks must not fire.
	wantClean(t, ValidateJobs([]trace.JobTrace{jt("a", 4, 0, 0, 100)}, ValidateOptions{Nodes: 8}))
}

func TestThroughputAttributionLeakFlagged(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Throughput.Append(0, 10.0)
	rec.Attributed.Append(0, 10.0)
	rec.Throughput.Append(5, 12.0)
	rec.Attributed.Append(5, 8.0) // 4 GiB/s nobody's job accounts for
	res := ValidateRun(rec, ValidateOptions{})
	wantViolation(t, res, "throughput-attribution")
}

func TestThroughputAttributionToleratesFloatNoise(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Throughput.Append(0, 10.0)
	rec.Attributed.Append(0, 10.0+1e-9) // association-order noise only
	wantClean(t, ValidateRun(rec, ValidateOptions{}))
}

func TestThroughputAttributionSkipsLegacyRecorders(t *testing.T) {
	// A recorder without the attributed series (older trace files rebuilt
	// into a Recorder) must not fail the check.
	rec := &trace.Recorder{}
	rec.Throughput.Append(0, 10.0)
	wantClean(t, ValidateRun(rec, ValidateOptions{}))
}

func TestThroughputAttributionLengthMismatch(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Throughput.Append(0, 10.0)
	rec.Throughput.Append(5, 10.0)
	rec.Attributed.Append(0, 10.0)
	res := ValidateRun(rec, ValidateOptions{})
	wantViolation(t, res, "throughput-attribution")
}

func TestResultErrSummarises(t *testing.T) {
	var res Result
	for i := 0; i < 5; i++ {
		res.violatef("x", "violation %d", i)
	}
	err := res.Err()
	if err == nil {
		t.Fatal("Err() = nil for a dirty result")
	}
	if !strings.Contains(err.Error(), "5 invariant violation(s)") || !strings.Contains(err.Error(), "and 2 more") {
		t.Fatalf("unexpected error text: %v", err)
	}
	var clean Result
	if clean.Err() != nil || !clean.OK() {
		t.Fatal("clean result must be OK with nil Err")
	}
}

// TestValidateJobsCostShape is a cost-shape test for the schedule
// validator. Per job, a 100k-job trace may cost at most 3× what a 10k-job
// trace does; the sorts add a log factor of about 1.25×, and a scan per
// pair in the class-order check would add 10×. At both sizes validation
// may allocate at most 64 bytes per job: the node sweep's two events and
// the class-order index. It must not copy the jobs, which costs a
// JobTrace (over 200 bytes) each.
func TestValidateJobsCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	small, large := classTrace(10_000), classTrace(100_000)
	opts := ValidateOptions{Nodes: 1 << 20}
	for _, jobs := range [][]trace.JobTrace{small, large} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := ValidateJobs(jobs, opts)
		runtime.ReadMemStats(&after)
		wantClean(t, res)
		if b := after.TotalAlloc - before.TotalAlloc; b > 64*uint64(len(jobs)) {
			t.Fatalf("%d jobs: validation allocated %d bytes, %.0f per job", len(jobs), b, float64(b)/float64(len(jobs)))
		}
	}
	bestSmall, bestLarge := time.Duration(1<<63-1), time.Duration(1<<63-1)
	// Interleave the runs so a noisy neighbour slows both sizes alike; the
	// minimum over runs drops the noisy ones.
	for r := 0; r < 5; r++ {
		bestSmall = min(bestSmall, timeValidate(small, opts))
		bestLarge = min(bestLarge, timeValidate(large, opts))
	}
	t.Logf("per job: 10k jobs %v, 100k jobs %v (%.2fx)", bestSmall, bestLarge, float64(bestLarge)/float64(bestSmall))
	if bestLarge > 3*bestSmall {
		t.Fatalf("validation costs %v per job at 100k jobs vs %v at 10k", bestLarge, bestSmall)
	}
}

// classTrace is a clean n-job trace in completion-like (shuffled) order:
// 24 classes, each started in queue order.
func classTrace(n int) []trace.JobTrace {
	jobs := make([]trace.JobTrace, n)
	for i := range jobs {
		at := float64(i)
		jobs[i] = trace.JobTrace{ID: fmt.Sprintf("j%06d", i), Fingerprint: fmt.Sprintf("fp%d", i%8), Nodes: 1 + i%3,
			Limit: 3600, Submit: at, Start: at + 30, End: at + 600}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// timeValidate returns the wall time of one validation per job.
func timeValidate(jobs []trace.JobTrace, opts ValidateOptions) time.Duration {
	start := time.Now()
	ValidateJobs(jobs, opts)
	return time.Since(start) / time.Duration(len(jobs))
}

// TestCheckRoundViolationText forges a round that breaks two per-round
// invariants and pins the findings' text: the round's time prints once,
// as des.Time formats it.
func TestCheckRoundViolationText(t *testing.T) {
	j := &sched.Job{ID: "x", Nodes: 5, Limit: 60 * des.Second}
	in := sched.RoundInput{Now: des.TimeFromSeconds(30)}
	decisions := []sched.Decision{{Job: j, StartNow: true, Reserved: true, PlannedStart: des.TimeFromSeconds(90)}}
	var res Result
	checkRound(in, decisions, nil, ReplayConfig{Nodes: 4}, &res)
	want := []Violation{
		{"decision-exclusive", "t=30.000000s job x in 2 decision states"},
		{"node-capacity", "t=30.000000s: 5 nodes allocated on a 4-node cluster"},
	}
	if fmt.Sprint(res.Violations) != fmt.Sprint(want) {
		t.Errorf("violations %q, want %q", res.Violations, want)
	}
}
