package sched

import (
	"testing"

	"wasched/internal/des"
)

func bbJob(id string, nodes int, limit des.Duration, bb float64) *Job {
	j := job(id, nodes, limit)
	j.BBBytes = bb
	return j
}

// The defining plan-policy behaviour: a job whose burst-buffer demand does
// not fit now receives a future co-reservation instead of a start-now
// decision, and BB-free jobs backfill around it.
func TestPlanPolicyCoReservesBurstBuffer(t *testing.T) {
	p := PlanPolicy{TotalNodes: 4, BBCapacity: 100}
	r0 := running("r0", 2, 100*sec, tsec(0))
	r0.BBBytes = 100 // holds the whole BB pool until t=100
	in := RoundInput{
		Now:     tsec(0),
		Running: []*Job{r0},
		Waiting: []*Job{
			bbJob("blocked", 2, 50*sec, 50), // nodes free, BB full
			bbJob("filler", 2, 30*sec, 0),   // no BB: backfills now
		},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if m["blocked"].StartNow {
		t.Fatalf("blocked must not start while BB is full: %+v", m["blocked"])
	}
	if !m["blocked"].Reserved || m["blocked"].PlannedStart != tsec(100) {
		t.Fatalf("blocked must be co-reserved at t=100: %+v", m["blocked"])
	}
	if !m["filler"].StartNow {
		t.Fatalf("filler must backfill now: %+v", m["filler"])
	}

	// The node-only policy would greedily start the blocked job (its nodes
	// are free) — the decision the executor then has to defer.
	ds, _ = RunRound(NodePolicy{TotalNodes: 4}, in, Options{})
	if m := decisionsByID(ds); !m["blocked"].StartNow {
		t.Fatalf("node policy is expected to be BB-blind: %+v", m["blocked"])
	}
}

func TestPlanPolicyInfeasibleDemandIsSkipped(t *testing.T) {
	p := PlanPolicy{TotalNodes: 4, BBCapacity: 100}
	in := RoundInput{
		Now:     tsec(0),
		Waiting: []*Job{bbJob("huge", 1, 10*sec, 200)},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if !m["huge"].Skipped || m["huge"].StartNow || m["huge"].Reserved {
		t.Fatalf("demand above capacity must be skipped: %+v", m["huge"])
	}
}

func TestPlanPolicyHorizonSkipsFarStarts(t *testing.T) {
	p := PlanPolicy{TotalNodes: 4, BBCapacity: 100, Horizon: 50 * sec}
	r0 := running("r0", 2, 100*sec, tsec(0))
	r0.BBBytes = 100
	in := RoundInput{
		Now:     tsec(0),
		Running: []*Job{r0},
		Waiting: []*Job{
			bbJob("far", 2, 50*sec, 50), // earliest feasible start t=100 > horizon
			bbJob("near", 2, 30*sec, 0), // starts now
		},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if !m["far"].Skipped || m["far"].Reserved {
		t.Fatalf("start beyond horizon must be skipped, not reserved: %+v", m["far"])
	}
	if !m["near"].StartNow {
		t.Fatalf("near must start: %+v", m["near"])
	}
}

func TestBBAwarePolicyConstrainsInner(t *testing.T) {
	p := BBAwarePolicy{Inner: NodePolicy{TotalNodes: 4}, Capacity: 100}
	if p.Name() != "bb+default" {
		t.Fatalf("name = %q", p.Name())
	}
	r0 := running("r0", 2, 100*sec, tsec(0))
	r0.BBBytes = 100
	in := RoundInput{
		Now:     tsec(0),
		Running: []*Job{r0},
		Waiting: []*Job{
			bbJob("blocked", 2, 50*sec, 50),
			bbJob("filler", 2, 30*sec, 0),
		},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if m["blocked"].StartNow || !m["blocked"].Reserved || m["blocked"].PlannedStart != tsec(100) {
		t.Fatalf("blocked must be co-reserved at t=100: %+v", m["blocked"])
	}
	if !m["filler"].StartNow {
		t.Fatalf("filler must backfill now: %+v", m["filler"])
	}
}

// Sessions must decide identically to the from-scratch NewRound path over
// start/finish deltas (the corpus test in internal/schedcheck holds the
// full replay to byte-identity; this pins the basic delta arithmetic).
func TestPlanSessionMatchesNewRound(t *testing.T) {
	for _, p := range []Policy{
		PlanPolicy{TotalNodes: 4, BBCapacity: 100},
		PlanPolicy{TotalNodes: 4, BBCapacity: 100, ThroughputLimit: 10},
		BBAwarePolicy{Inner: NodePolicy{TotalNodes: 4}, Capacity: 100},
		BBAwarePolicy{Inner: IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 10}, Capacity: 100},
	} {
		s := NewSession(p)
		if s == nil {
			t.Fatalf("%s: no session", p.Name())
		}
		j1 := bbJob("j1", 2, 100*sec, 60)
		j1.Rate = 4
		j2 := bbJob("j2", 2, 80*sec, 60)
		j2.Rate = 3
		probe := bbJob("probe", 2, 50*sec, 50)
		probe.Rate = 2

		// Round 1: empty cluster; start j1.
		in := RoundInput{Now: tsec(0), Waiting: []*Job{j1, j2, probe}}
		s.BeginRound(in)
		j1.StartedAt = tsec(0)
		s.JobStarted(j1)

		// Round 2: j1 running; j2's BB demand cannot overlap j1's.
		in = RoundInput{Now: tsec(10), Running: []*Job{j1}, Waiting: []*Job{j2, probe}, MeasuredThroughput: 5}
		sessRound := s.BeginRound(in)
		freshRound := p.NewRound(in)
		for _, j := range []*Job{j2, probe} {
			st, ok := sessRound.EarliestStart(j, in.Now)
			ft, fok := freshRound.EarliestStart(j, in.Now)
			if st != ft || ok != fok {
				t.Fatalf("%s: session start %v/%v != fresh %v/%v for %s", p.Name(), st, ok, ft, fok, j.ID)
			}
		}

		// j1 finishes early; the released BB tail must match too.
		s.JobFinished(j1, tsec(40))
		in = RoundInput{Now: tsec(40), Waiting: []*Job{j2, probe}}
		sessRound = s.BeginRound(in)
		freshRound = p.NewRound(in)
		st, ok := sessRound.EarliestStart(j2, in.Now)
		ft, fok := freshRound.EarliestStart(j2, in.Now)
		if st != ft || ok != fok {
			t.Fatalf("%s: post-finish session start %v/%v != fresh %v/%v", p.Name(), st, ok, ft, fok)
		}
	}
}
