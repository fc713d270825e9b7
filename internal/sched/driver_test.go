package sched

import (
	"fmt"
	"testing"

	"wasched/internal/des"
)

// driverPolicies are the policies FuzzDriverMatchesFresh drives, with the
// engine options each runs under.
func driverPolicies() []struct {
	p   Policy
	opt Options
} {
	io := IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit}
	return []struct {
		p   Policy
		opt Options
	}{
		{NodePolicy{TotalNodes: fuzzNodes}, Options{}},
		{NodePolicy{TotalNodes: fuzzNodes}, Options{BackfillMax: EASY}},
		{io, Options{}},
		{AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: true}, Options{}},
		{PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: 50, ThroughputLimit: fuzzLimit, Horizon: 600 * des.Second}, Options{}},
		{BBAwarePolicy{Inner: io, Capacity: 50}, Options{}},
	}
}

// Driver script opcodes: each op reads its opcode byte and one argument
// byte; an arrival reads four more.
const (
	opArrive  = iota // a job joins the queue at now
	opRound          // now advances by arg%4 rounds of 30 s; jobs past their limit end; one round runs
	opFinish         // a running job ends at now
	opRate           // a running job's rate estimate changes
	opMeasure        // the measured throughput changes
	opQueued         // a queued job's priority (even arg) or rate estimate (odd) changes
	numOps
)

// driverScript replays a byte-coded event script through a Driver with
// its skipped-round check on, and holds every round to a fresh RunRound
// over the same input. The script keeps its own copy of the plan, the
// non-start decisions since the last full round: a full round must decide
// exactly as the fresh one, a carried round as the plan followed by the
// tail it returns, and a quiet round as the plan alone. Start-now
// decisions start, or are refused when the script's refusal mask says so
// (a burst-buffer admission gate). It returns the rounds by kind.
func driverScript(t *testing.T, data []byte) (full, carried, quiet int) {
	if len(data) < 2 {
		return 0, 0, 0
	}
	pols := driverPolicies()
	pol := pols[int(data[0])%len(pols)]
	opt := pol.opt
	if data[1]&1 != 0 {
		opt.MaxJobTest = 3
	}
	refuse := data[1] >> 1 // which start-now decisions are refused, in turn
	data = data[2:]
	d := NewDriver(pol.p, opt)
	fail := func(detail string) { t.Fatalf("skipped-round check: %s", detail) }
	d.CheckSkippedRounds(fail)
	var (
		now      des.Time
		running  []*Job
		waiting  []*Job
		measured float64
		n        int
		plan     []Decision
	)
	pick := func(js []*Job, b byte) int { return int(b) % len(js) }
	for len(data) >= 2 {
		op, arg := data[0]%numOps, data[1]
		data = data[2:]
		switch op {
		case opArrive:
			if len(data) < 4 {
				return
			}
			n++
			j := &Job{
				ID:          fmt.Sprintf("j%03d", n),
				Fingerprint: string(rune('a' + n%3)),
				Nodes:       1 + int(arg)%fuzzNodes,
				Limit:       des.Duration(1+data[0]%12) * 30 * des.Second,
				Submit:      now,
				Priority:    int64(data[1] % 3),
				Rate:        float64(data[2] % 120),
				EstRuntime:  des.Duration(data[3]%12) * 30 * des.Second,
				BBBytes:     float64(data[3] % 60),
			}
			data = data[4:]
			waiting = append(waiting, j)
			d.Add(j)
		case opRound:
			now = now.Add(des.Duration(arg%4) * 30 * des.Second)
			kept := running[:0]
			for _, j := range running {
				if end := j.StartedAt.Add(j.Limit); end <= now {
					d.Finished(j, end)
					continue
				}
				kept = append(kept, j)
			}
			running = kept
			in := RoundInput{Now: now, Running: running, MeasuredThroughput: measured}
			decisions, _, kind := d.Round(&in)
			fresh, _ := RunRound(pol.p, in, opt)
			switch kind {
			case FullRound:
				full++
				plan = plan[:0]
			case CarriedRound:
				carried++
			case QuietRound:
				quiet++
			}
			sameDecisions(t, now, kind, append(plan[:len(plan):len(plan)], decisions...), fresh)
			for _, dc := range decisions {
				if !dc.StartNow {
					plan = append(plan, dc)
					continue
				}
				if refuse&1 != 0 {
					d.Refused(dc.Job)
				} else {
					dc.Job.StartedAt = now
					d.Started(dc.Job)
					running = append(running, dc.Job)
					waiting = remove(waiting, dc.Job)
				}
				refuse = refuse>>1 | refuse<<6&0x40
			}
		case opFinish:
			if len(running) > 0 {
				i := pick(running, arg)
				d.Finished(running[i], now)
				running = append(running[:i], running[i+1:]...)
			}
		case opRate:
			if len(running) > 0 {
				j := running[pick(running, arg)]
				old := j.Rate
				j.Rate = float64(arg % 120)
				d.Updated(j, old, now)
			}
		case opMeasure:
			measured = float64(arg) * 0.75
		case opQueued:
			if len(waiting) > 0 {
				if j := waiting[pick(waiting, arg)]; arg%2 == 0 {
					j.Priority = int64(arg / 2 % 3)
					d.Reprioritized()
				} else {
					j.Rate = float64(arg % 120)
					d.Changed()
				}
			}
		}
	}
	return full, carried, quiet
}

func remove(js []*Job, j *Job) []*Job {
	for i, w := range js {
		if w == j {
			return append(js[:i], js[i+1:]...)
		}
	}
	return js
}

func sameDecisions(t *testing.T, now des.Time, kind RoundKind, got, want []Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %s round decided %d jobs, a fresh round %d", now, kind, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v job %s: %s round %s, fresh round %s", now, want[i].Job.ID, kind, decisionString(got[i]), decisionString(want[i]))
		}
	}
}

// driverSeeds are FuzzDriverMatchesFresh's seed corpus. Each starts with
// the policy index and the option byte (bit 0: MaxJobTest 3; the rest:
// the refusal mask).
var driverSeeds = [][]byte{
	// io-aware: a starts, b, c and d are planned behind it; c, planned,
	// is raised above b; the next round must re-plan, not carry.
	{2, 0,
		opArrive, 7, 3, 0, 10, 0,
		opArrive, 7, 3, 0, 10, 0,
		opArrive, 3, 3, 0, 10, 0,
		opArrive, 3, 3, 0, 10, 0,
		opRound, 0,
		opQueued, 4,
		opRound, 1,
		opRound, 1},
	// adaptive: starts, arrivals behind the plan (carried), quiet rounds,
	// a finish, an early arrival that sorts into the plan, a rate update.
	{3, 0,
		opArrive, 3, 5, 0, 80, 4,
		opArrive, 5, 9, 0, 30, 6,
		opArrive, 6, 2, 0, 60, 2,
		opRound, 0,
		opArrive, 2, 4, 0, 10, 3,
		opRound, 1,
		opRound, 1,
		opRound, 1,
		opArrive, 1, 1, 2, 100, 1,
		opRound, 1,
		opFinish, 0,
		opRound, 2,
		opRate, 90,
		opRound, 1,
		opMeasure, 200,
		opRound, 1,
		opRound, 3},
	// plan with BB: refused starts, an estimate change behind the plan.
	{4, 0x0a,
		opArrive, 4, 6, 0, 50, 40,
		opArrive, 4, 6, 0, 50, 30,
		opArrive, 7, 10, 1, 20, 25,
		opArrive, 2, 1, 0, 5, 59,
		opRound, 0,
		opRound, 1,
		opRound, 1,
		opQueued, 3,
		opRound, 1,
		opArrive, 1, 11, 0, 0, 10,
		opRound, 2,
		opQueued, 2,
		opRound, 1,
		opQueued, 1,
		opRound, 1,
		opRound, 3},
	// EASY, with MaxJobTest 3 and a deep queue.
	{1, 1,
		opArrive, 5, 4, 0, 0, 0,
		opArrive, 6, 4, 1, 0, 0,
		opArrive, 2, 4, 2, 0, 0,
		opArrive, 3, 4, 0, 0, 0,
		opArrive, 0, 4, 1, 0, 0,
		opRound, 0,
		opRound, 1,
		opFinish, 0,
		opRound, 1,
		opRound, 1},
	// io-aware: a starts, b waits for its bandwidth; b's estimate drops
	// so that it fits now; the next round must re-plan and start it, not
	// carry b's old reservation.
	{2, 0,
		opArrive, 3, 7, 0, 80, 0,
		opArrive, 3, 7, 0, 80, 0,
		opRound, 0,
		opQueued, 1,
		opRound, 0,
		opRound, 1},
	// bb+io-aware under a measured throughput the estimates do not explain.
	{5, 0x04,
		opMeasure, 40,
		opArrive, 1, 4, 0, 70, 50,
		opArrive, 2, 4, 0, 70, 20,
		opArrive, 3, 4, 0, 0, 0,
		opRound, 0,
		opRound, 1,
		opMeasure, 0,
		opRound, 1,
		opArrive, 0, 2, 0, 10, 10,
		opRound, 1,
		opRound, 1},
}

// FuzzDriverMatchesFresh drives a Driver through byte-coded event scripts
// (arrivals inside and behind the planned prefix, starts, refused starts,
// finishes, rate updates, measured-throughput and queued priority and
// estimate changes, and rounds) under default, EASY, io-aware, adaptive,
// plan and bb+io-aware scheduling, and holds every round to a fresh
// RunRound (driverScript).
func FuzzDriverMatchesFresh(f *testing.F) {
	for _, s := range driverSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driverScript(t, data)
	})
}

// TestDriverSeedsSkipRounds keeps the seed corpus honest: between them
// the seeds must carry rounds and skip quiet ones, or the fuzz target's
// seed run checks neither.
func TestDriverSeedsSkipRounds(t *testing.T) {
	var carried, quiet int
	for _, s := range driverSeeds {
		_, c, q := driverScript(t, s)
		carried += c
		quiet += q
	}
	if carried == 0 || quiet == 0 {
		t.Fatalf("seeds carried %d rounds and skipped %d as quiet; want both", carried, quiet)
	}
	t.Logf("seeds carried %d rounds, %d quiet", carried, quiet)
}
