package sched

import (
	"math"
	"testing"

	"wasched/internal/des"
)

// estjob builds a waiting job with rate and runtime estimates.
func estjob(id string, nodes int, limit des.Duration, rate float64, est des.Duration) *Job {
	j := iojob(id, nodes, limit, rate)
	j.EstRuntime = est
	return j
}

func adaptive(n int, limit float64) AdaptivePolicy {
	return AdaptivePolicy{TotalNodes: n, ThroughputLimit: limit, TwoGroup: true}
}

func TestAdaptiveTargetComputation(t *testing.T) {
	// 5 sleeps (rate 0) + 5 writers (rate 4), all d=100s, n=1, N=10:
	// R̃ = (5·4·100)·10 / (10·1·100) = 20.
	p := adaptive(10, 1000)
	var waiting []*Job
	for i := 0; i < 5; i++ {
		waiting = append(waiting, estjob("s"+string(rune('0'+i)), 1, 200*sec, 0, 100*sec))
	}
	for i := 0; i < 5; i++ {
		waiting = append(waiting, estjob("w"+string(rune('0'+i)), 1, 200*sec, 4, 100*sec))
	}
	r := p.NewRound(RoundInput{Now: 0, Waiting: waiting}).(diagRound)
	if math.Abs(r.ov.target-20) > 1e-9 {
		t.Fatalf("target = %v, want 20", r.ov.target)
	}
	if r.ov.rStar != 0 || r.ov.rZeroBar != 0 {
		t.Fatalf("two-group split: r*=%v r̄=%v, want 0,0 (sleeps hold half)", r.ov.rStar, r.ov.rZeroBar)
	}
	if r.ov.adjTarget != 20 {
		t.Fatalf("adjusted target = %v", r.ov.adjTarget)
	}
}

func TestAdaptiveThrottlesRegularJobs(t *testing.T) {
	// Target ≈ 5.88 but each writer needs 10: only one writer at a time;
	// sleeps must keep flowing.
	p := adaptive(10, 1000)
	var waiting []*Job
	for i := 0; i < 8; i++ {
		waiting = append(waiting, estjob("s"+string(rune('0'+i)), 1, 200*sec, 0, 100*sec))
	}
	waiting = append(waiting,
		estjob("w1", 1, 50*sec, 10, 25*sec),
		estjob("w2", 1, 50*sec, 10, 25*sec),
	)
	sortQueue(waiting)
	ds, _ := RunRound(p, RoundInput{Now: 0, Waiting: waiting}, Options{})
	m := decisionsByID(ds)
	for i := 0; i < 8; i++ {
		if !m["s"+string(rune('0'+i))].StartNow {
			t.Fatalf("sleep %d must start (zero job)", i)
		}
	}
	if !m["w1"].StartNow {
		t.Fatal("first writer fills the empty target level")
	}
	if m["w2"].StartNow {
		t.Fatal("second writer must wait: target level already reached")
	}
	if m["w2"].PlannedStart != tsec(50) { // w1's reservation runs for L=50s
		t.Fatalf("w2 planned at %v, want 50s", m["w2"].PlannedStart)
	}
}

func TestAdaptiveTwoGroupPromotesLightJobs(t *testing.T) {
	// Queue of rates 1,2,3,4 (d=100, n=1, N=10): the zero group must
	// absorb the lightest jobs holding half the node·seconds → r* = 2,
	// r̄_zero = (1·100 + 2·100)/200 = 1.5, R̃ = 25, R̃' = 25 − 10·1.5 = 10.
	p := adaptive(10, 1000)
	waiting := []*Job{
		estjob("a", 1, 200*sec, 1, 100*sec),
		estjob("b", 1, 200*sec, 2, 100*sec),
		estjob("c", 1, 200*sec, 3, 100*sec),
		estjob("d", 1, 200*sec, 4, 100*sec),
	}
	r := p.NewRound(RoundInput{Now: 0, Waiting: waiting}).(diagRound)
	if math.Abs(r.ov.rStar-2) > 1e-9 {
		t.Fatalf("r* = %v, want 2", r.ov.rStar)
	}
	if math.Abs(r.ov.rZeroBar-1.5) > 1e-9 {
		t.Fatalf("r̄_zero = %v, want 1.5", r.ov.rZeroBar)
	}
	if math.Abs(r.ov.target-25) > 1e-9 {
		t.Fatalf("target = %v, want 25", r.ov.target)
	}
	if math.Abs(r.ov.adjTarget-10) > 1e-9 {
		t.Fatalf("adjusted target = %v, want 10", r.ov.adjTarget)
	}
	// a and b are zero jobs, c and d regular.
	if !r.ov.isZeroJob(waiting[0]) || !r.ov.isZeroJob(waiting[1]) {
		t.Fatal("a,b must be zero jobs")
	}
	if r.ov.isZeroJob(waiting[2]) || r.ov.isZeroJob(waiting[3]) {
		t.Fatal("c,d must be regular jobs")
	}
}

func TestAdaptiveNaiveMode(t *testing.T) {
	// Without the two-group approximation only genuinely zero-rate jobs
	// are exempt from throttling.
	p := AdaptivePolicy{TotalNodes: 10, ThroughputLimit: 1000, TwoGroup: false}
	if p.Name() != "adaptive-naive" {
		t.Fatal("name")
	}
	waiting := []*Job{
		estjob("a", 1, 200*sec, 1, 100*sec),
		estjob("b", 1, 200*sec, 2, 100*sec),
		estjob("c", 1, 200*sec, 3, 100*sec),
		estjob("d", 1, 200*sec, 4, 100*sec),
	}
	r := p.NewRound(RoundInput{Now: 0, Waiting: waiting}).(diagRound)
	if r.ov.rStar != 0 || r.ov.rZeroBar != 0 {
		t.Fatalf("naive split: %v %v", r.ov.rStar, r.ov.rZeroBar)
	}
	for _, j := range waiting {
		if r.ov.isZeroJob(j) {
			t.Fatalf("job %s with positive rate must be regular in naive mode", j.ID)
		}
	}
}

func TestAdaptiveRunningJobsReduceTarget(t *testing.T) {
	// A running job's remaining I/O counts toward V_IO and its adjusted
	// rate is booked in AT.
	p := adaptive(10, 1000)
	run := estjob("r1", 1, 100*sec, 8, 60*sec)
	run.StartedAt = tsec(0)
	in := RoundInput{
		Now:     tsec(10), // 50 s of estimated runtime left
		Running: []*Job{run},
		Waiting: []*Job{
			estjob("s1", 1, 200*sec, 0, 100*sec),
			estjob("w1", 1, 50*sec, 8, 25*sec),
		},
	}
	r := p.NewRound(in).(diagRound)
	// V_IO = 8·50 (running) + 8·25 (w1) = 600; node·s = 1·50 + 100 + 25 = 175.
	wantTarget := 600.0 * 10 / 175
	if math.Abs(r.ov.target-wantTarget) > 1e-9 {
		t.Fatalf("target = %v, want %v", r.ov.target, wantTarget)
	}
	// AT already carries the running job's 8 bytes/s until its limit.
	if got := r.ov.at.ValueAt(tsec(20)); math.Abs(got-8) > 1e-9 {
		t.Fatalf("AT usage = %v, want 8", got)
	}
}

func TestAdaptiveSignedAdjustmentForQuietRunners(t *testing.T) {
	// A running job quieter than r̄_zero contributes a negative adjusted
	// reservation (capacity credit), per Algorithm 5 line 11.
	p := adaptive(10, 1000)
	quiet := estjob("r1", 1, 100*sec, 0.5, 60*sec)
	quiet.StartedAt = tsec(0)
	waiting := []*Job{
		estjob("a", 1, 200*sec, 1, 100*sec),
		estjob("b", 1, 200*sec, 2, 100*sec),
		estjob("c", 1, 200*sec, 3, 100*sec),
		estjob("d", 1, 200*sec, 4, 100*sec),
	}
	r := p.NewRound(RoundInput{Now: tsec(10), Running: []*Job{quiet}, Waiting: waiting}).(diagRound)
	// r̄_zero = 1.5 (from a,b); the runner's adjusted rate = 0.5 − 1.5 < 0.
	if got := r.ov.at.ValueAt(tsec(20)); got >= 0 {
		t.Fatalf("AT usage = %v, want negative credit", got)
	}
}

func TestAdaptiveEmptyQueue(t *testing.T) {
	p := adaptive(10, 1000)
	r := p.NewRound(RoundInput{Now: 0}).(diagRound)
	if r.ov.target != 0 || r.ov.rStar != 0 || r.ov.rZeroBar != 0 {
		t.Fatalf("empty round: %+v", r.Diagnostics())
	}
}

func TestAdaptiveAllZeroEstimates(t *testing.T) {
	// The untrained case (paper Fig. 3e at t=0): every estimate is zero,
	// so the policy degenerates to default Slurm behaviour — everything
	// is a zero job and no throughput throttling occurs.
	p := adaptive(4, 1000)
	waiting := []*Job{
		estjob("a", 1, 100*sec, 0, 0),
		estjob("b", 1, 100*sec, 0, 0),
		estjob("c", 4, 100*sec, 0, 0),
	}
	ds, _ := RunRound(p, RoundInput{Now: 0, Waiting: waiting}, Options{})
	m := decisionsByID(ds)
	if !m["a"].StartNow || !m["b"].StartNow {
		t.Fatal("zero-estimate jobs must schedule like plain node jobs")
	}
	if m["c"].StartNow || !m["c"].Reserved {
		t.Fatal("c must wait for nodes with a reservation")
	}
}

func TestAdaptiveStillEnforcesHardLimit(t *testing.T) {
	// Even when the target allows it, the hard throughput limit binds.
	p := adaptive(10, 10) // hard limit 10
	waiting := []*Job{
		estjob("w1", 1, 50*sec, 8, 25*sec),
		estjob("w2", 1, 50*sec, 8, 25*sec),
		// Plenty of I/O in queue → target far above the limit.
		estjob("w3", 1, 50*sec, 8, 25*sec),
		estjob("w4", 1, 50*sec, 8, 25*sec),
		estjob("w5", 1, 50*sec, 8, 25*sec),
		estjob("w6", 1, 50*sec, 8, 25*sec),
	}
	ds, _ := RunRound(p, RoundInput{Now: 0, Waiting: waiting}, Options{})
	m := decisionsByID(ds)
	started := 0
	for _, d := range m {
		if d.StartNow {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("hard limit 10 admits exactly one 8-rate writer, got %d", started)
	}
}

func TestAdaptiveDiagnostics(t *testing.T) {
	p := adaptive(10, 50)
	r := p.NewRound(RoundInput{Now: 0, Waiting: []*Job{estjob("w", 1, 100*sec, 5, 50*sec)}})
	d, ok := r.(Diagnoser)
	if !ok {
		t.Fatal("adaptive round must expose diagnostics")
	}
	diag := d.Diagnostics()
	for _, key := range []string{"target", "adjusted_target", "r_star", "r_zero_bar", "limit"} {
		if _, ok := diag[key]; !ok {
			t.Fatalf("missing diagnostic %q", key)
		}
	}
	if diag["limit"] != 50 {
		t.Fatal("limit diagnostic")
	}
	if p.Name() != "adaptive" {
		t.Fatal("name")
	}
}

func TestAdaptivePanicsOnBadConfig(t *testing.T) {
	for _, p := range []AdaptivePolicy{
		{TotalNodes: 0, ThroughputLimit: 1},
		{TotalNodes: 1, ThroughputLimit: 0},
		{TotalNodes: 1, ThroughputLimit: 1, QoSFraction: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			p.NewRound(RoundInput{})
		}()
	}
}

func TestAdaptiveQoSFractionExtremes(t *testing.T) {
	waiting := []*Job{
		estjob("a", 1, 200*sec, 1, 100*sec),
		estjob("b", 1, 200*sec, 4, 100*sec),
	}
	// QoS fraction ~1: everything lands in the zero group.
	p := AdaptivePolicy{TotalNodes: 10, ThroughputLimit: 1000, TwoGroup: true, QoSFraction: 1}
	r := p.NewRound(RoundInput{Now: 0, Waiting: waiting}).(diagRound)
	if !r.ov.isZeroJob(waiting[1]) {
		t.Fatal("with QoS fraction 1 all jobs must be zero jobs")
	}
}
