package sched

import (
	"sort"
	"testing"

	"wasched/internal/des"
)

const sec = des.Second

func tsec(s int64) des.Time { return des.Time(s) * des.Time(sec) }

func job(id string, nodes int, limit des.Duration) *Job {
	return &Job{ID: id, Fingerprint: id, Nodes: nodes, Limit: limit}
}

func running(id string, nodes int, limit des.Duration, started des.Time) *Job {
	j := job(id, nodes, limit)
	j.StartedAt = started
	return j
}

func decisionsByID(ds []Decision) map[string]Decision {
	m := make(map[string]Decision, len(ds))
	for _, d := range ds {
		m[d.Job.ID] = d
	}
	return m
}

// sortQueue puts waiting in queue order, as the driver's insertion keeps
// it.
func sortQueue(waiting []*Job) {
	sort.SliceStable(waiting, func(a, b int) bool { return queueLess(waiting[a], waiting[b]) })
}

// The queue order: descending priority, then submit time, then ID.
func TestSortQueue(t *testing.T) {
	a := job("a", 1, sec)
	a.Submit = tsec(10)
	b := job("b", 1, sec)
	b.Submit = tsec(5)
	c := job("c", 1, sec)
	c.Submit = tsec(5)
	hi := job("hi", 1, sec)
	hi.Submit = tsec(99)
	hi.Priority = 10
	var q []*Job
	for _, j := range []*Job{a, b, hi, c} {
		q = queueInsert(q, j)
	}
	want := []string{"hi", "b", "c", "a"}
	for i, j := range q {
		if j.ID != want[i] {
			t.Fatalf("order: got %v want %v", ids(q), want)
		}
	}
}

func ids(q []*Job) []string {
	out := make([]string, len(q))
	for i, j := range q {
		out[i] = j.ID
	}
	return out
}

func TestEstRuntimeFallback(t *testing.T) {
	j := job("x", 1, 100*sec)
	if j.estRuntime() != 100*sec {
		t.Fatal("must fall back to limit")
	}
	j.EstRuntime = 30 * sec
	if j.estRuntime() != 30*sec {
		t.Fatal("must use estimate")
	}
	j.StartedAt = tsec(50)
	if j.remaining(tsec(60)) != 20*sec {
		t.Fatalf("remaining = %v", j.remaining(tsec(60)))
	}
	if j.remaining(tsec(90)) != 0 {
		t.Fatal("remaining past estimated end must clamp to 0")
	}
}

func TestNodePolicyStartsUpToCapacity(t *testing.T) {
	p := NodePolicy{TotalNodes: 10}
	in := RoundInput{
		Now: tsec(0),
		Waiting: []*Job{
			job("j1", 4, 100*sec),
			job("j2", 4, 100*sec),
			job("j3", 4, 100*sec), // doesn't fit: only 2 nodes left
			job("j4", 2, 100*sec), // would fit, but FIFO order reserves j3 first
		},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if !m["j1"].StartNow || !m["j2"].StartNow {
		t.Fatalf("j1/j2 must start: %+v", ds)
	}
	if m["j3"].StartNow {
		t.Fatal("j3 must be delayed")
	}
	if !m["j3"].Reserved || m["j3"].PlannedStart != tsec(100) {
		t.Fatalf("j3 reservation: %+v", m["j3"])
	}
	// j4 fits in the 2 remaining nodes right now: backfill lets it jump
	// ahead because it does not delay j3's reservation.
	if !m["j4"].StartNow {
		t.Fatalf("j4 must backfill: %+v", m["j4"])
	}
}

func TestNodePolicyBackfillDoesNotDelayReservation(t *testing.T) {
	p := NodePolicy{TotalNodes: 10}
	in := RoundInput{
		Now: tsec(0),
		Running: []*Job{
			running("r1", 8, 100*sec, tsec(0)),
		},
		Waiting: []*Job{
			job("big", 10, 50*sec),   // must wait for r1: reserved at 100
			job("long", 2, 200*sec),  // 2 free nodes now, but would hold them past 100 and delay big
			job("short", 2, 100*sec), // fits exactly before big's reservation
		},
	}
	ds, _ := RunRound(p, in, Options{})
	m := decisionsByID(ds)
	if m["big"].PlannedStart != tsec(100) || !m["big"].Reserved {
		t.Fatalf("big: %+v", m["big"])
	}
	if m["long"].StartNow {
		t.Fatal("long would delay big's reservation; must not start")
	}
	if !m["short"].StartNow {
		t.Fatalf("short must backfill into the 100s hole: %+v", m["short"])
	}
}

func TestBackfillMaxEASY(t *testing.T) {
	p := NodePolicy{TotalNodes: 4}
	in := RoundInput{
		Now: tsec(0),
		Running: []*Job{
			running("r1", 4, 100*sec, tsec(0)),
		},
		Waiting: []*Job{
			job("j1", 2, 50*sec),
			job("j2", 2, 50*sec),
			job("j3", 2, 50*sec),
		},
	}
	ds, _ := RunRound(p, in, Options{BackfillMax: EASY})
	m := decisionsByID(ds)
	if !m["j1"].Reserved {
		t.Fatal("head of queue must get the only reservation")
	}
	if m["j2"].Reserved || !m["j2"].Skipped {
		t.Fatalf("j2 must be skipped: %+v", m["j2"])
	}
	if m["j3"].Reserved || !m["j3"].Skipped {
		t.Fatalf("j3 must be skipped: %+v", m["j3"])
	}

	// Unlimited reserves for all delayed jobs.
	ds, _ = RunRound(p, in, Options{BackfillMax: Unlimited})
	m = decisionsByID(ds)
	if !m["j1"].Reserved || !m["j2"].Reserved || !m["j3"].Reserved {
		t.Fatalf("unlimited must reserve all: %+v", ds)
	}
	// j1 and j2 stack at t=100; j3 must wait for a slot at t=150.
	if m["j1"].PlannedStart != tsec(100) || m["j2"].PlannedStart != tsec(100) {
		t.Fatalf("j1/j2 planned: %v %v", m["j1"].PlannedStart, m["j2"].PlannedStart)
	}
	if m["j3"].PlannedStart != tsec(150) {
		t.Fatalf("j3 planned: %v", m["j3"].PlannedStart)
	}
}

func TestBackfillMaxStillStartsLaterJobs(t *testing.T) {
	// EASY backfill: jobs behind the reservation still start immediately
	// when they fit (that is the point of backfill).
	p := NodePolicy{TotalNodes: 4}
	in := RoundInput{
		Now: tsec(0),
		Running: []*Job{
			running("r1", 3, 100*sec, tsec(0)),
		},
		Waiting: []*Job{
			job("blocked", 4, 50*sec),
			job("skipme", 2, 50*sec),
			job("fits", 1, 50*sec),
		},
	}
	ds, _ := RunRound(p, in, Options{BackfillMax: EASY})
	m := decisionsByID(ds)
	if !m["blocked"].Reserved {
		t.Fatal("blocked must reserve")
	}
	if !m["skipme"].Skipped {
		t.Fatal("skipme needs 2 nodes (1 free) → delayed → skipped under EASY")
	}
	if !m["fits"].StartNow {
		t.Fatal("fits must start on the free node")
	}
}

func TestMaxJobTestBoundsExaminedJobs(t *testing.T) {
	p := NodePolicy{TotalNodes: 1}
	var waiting []*Job
	for i := 0; i < 10; i++ {
		waiting = append(waiting, job(string(rune('a'+i)), 1, 10*sec))
	}
	ds, _ := RunRound(p, RoundInput{Now: 0, Waiting: waiting}, Options{MaxJobTest: 3})
	if len(ds) != 3 {
		t.Fatalf("examined %d jobs, want 3", len(ds))
	}
}

func TestJobLargerThanClusterIsSkipped(t *testing.T) {
	p := NodePolicy{TotalNodes: 4}
	ds, _ := RunRound(p, RoundInput{Now: 0, Waiting: []*Job{job("huge", 5, 10*sec)}}, Options{})
	if !ds[0].Skipped || ds[0].Reserved || ds[0].StartNow {
		t.Fatalf("infeasible job must be skipped without reservation: %+v", ds[0])
	}
}

func TestNodePolicyPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NodePolicy{}.NewRound(RoundInput{})
}

func TestNodePolicyName(t *testing.T) {
	if (NodePolicy{TotalNodes: 1}).Name() != "default" {
		t.Fatal("name")
	}
}

// reversingPolicy wraps NodePolicy with a WindowOrderer that reverses the
// examined window — a deliberately perverse packing order that makes the
// engine's window handling observable.
type reversingPolicy struct {
	NodePolicy
}

func (p reversingPolicy) OrderWindow(_ RoundInput, window []*Job) {
	for i, j := 0, len(window)-1; i < j; i, j = i+1, j-1 {
		window[i], window[j] = window[j], window[i]
	}
}

// TestRunRoundWindowSemantics pins the engine's window rules across
// MaxJobTest, WindowOrderer and skipped jobs:
//
//   - MaxJobTest truncation happens BEFORE any WindowOrderer reordering:
//     the window is the queue's head, whatever order it is then tried in;
//   - skipped jobs (malformed or infeasible) burn a window slot but never a
//     BackfillMax reservation slot;
//   - reordering touches a copy — in.Waiting keeps the controller's order.
func TestRunRoundWindowSemantics(t *testing.T) {
	mk := func(n int) []*Job {
		q := make([]*Job, n)
		for i := range q {
			q[i] = job(string(rune('a'+i)), 1, 10*sec)
		}
		return q
	}
	cases := []struct {
		name    string
		policy  Policy
		queue   func() []*Job
		running []*Job
		opts    Options
		// want maps job ID to expected state: "start", "reserve", "skip";
		// IDs absent from the map must not be examined at all.
		want      map[string]string
		wantOrder []string // expected decision order, nil to skip
	}{
		{
			name:   "max-job-test truncates before reordering",
			policy: reversingPolicy{NodePolicy{TotalNodes: 4}},
			queue:  func() []*Job { return mk(4) },
			opts:   Options{MaxJobTest: 2},
			// The window is {a, b} (queue head), THEN reversed: c and d
			// stay unexamined even though reversal would have put d first
			// had the whole queue been reordered.
			want:      map[string]string{"a": "start", "b": "start"},
			wantOrder: []string{"b", "a"},
		},
		{
			name:   "malformed job burns a window slot",
			policy: NodePolicy{TotalNodes: 4},
			queue: func() []*Job {
				q := mk(3)
				q[0].Nodes = 0 // malformed: skipped defensively
				return q
			},
			opts: Options{MaxJobTest: 2},
			// The zero-node job occupies one of the two examined slots, so
			// c is never looked at this round.
			want: map[string]string{"a": "skip", "b": "start"},
		},
		{
			name:   "skips do not burn the backfill budget",
			policy: NodePolicy{TotalNodes: 4},
			queue: func() []*Job {
				q := mk(3)
				q[0].Nodes = 5 // larger than the cluster: never feasible
				return q
			},
			running: []*Job{running("r", 4, 100*sec, tsec(0))},
			opts:    Options{BackfillMax: 1},
			// a is skipped (infeasible) without consuming the single
			// backfill reservation, which must go to b; c is then out of
			// budget.
			want: map[string]string{"a": "skip", "b": "reserve", "c": "skip"},
		},
		{
			name:    "easy backfill reserves only the queue head",
			policy:  NodePolicy{TotalNodes: 4},
			queue:   func() []*Job { return mk(3) },
			running: []*Job{running("r", 4, 100*sec, tsec(0))},
			opts:    Options{BackfillMax: EASY},
			want:    map[string]string{"a": "reserve", "b": "skip", "c": "skip"},
		},
		{
			name:   "whole queue examined by default",
			policy: reversingPolicy{NodePolicy{TotalNodes: 4}},
			queue:  func() []*Job { return mk(4) },
			opts:   Options{},
			want:   map[string]string{"a": "start", "b": "start", "c": "start", "d": "start"},
			// Reversal covers the whole queue when MaxJobTest is off.
			wantOrder: []string{"d", "c", "b", "a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			queue := tc.queue()
			orig := ids(queue)
			in := RoundInput{Now: tsec(0), Running: tc.running, Waiting: queue}
			ds, _ := RunRound(tc.policy, in, tc.opts)
			if len(ds) != len(tc.want) {
				t.Fatalf("examined %d jobs, want %d (%v)", len(ds), len(tc.want), ds)
			}
			byID := decisionsByID(ds)
			for id, state := range tc.want {
				d, ok := byID[id]
				if !ok {
					t.Fatalf("job %s was not examined", id)
				}
				got := "skip"
				if d.StartNow {
					got = "start"
				} else if d.Reserved {
					got = "reserve"
				}
				if got != state {
					t.Errorf("job %s: got %s, want %s", id, got, state)
				}
			}
			if tc.wantOrder != nil {
				for i, id := range tc.wantOrder {
					if ds[i].Job.ID != id {
						t.Fatalf("decision order: got %v at %d, want %v", ds[i].Job.ID, i, tc.wantOrder)
					}
				}
			}
			// The engine must never mutate the controller's queue slice.
			for i, id := range ids(queue) {
				if id != orig[i] {
					t.Fatalf("in.Waiting mutated: %v, want %v", ids(queue), orig)
				}
			}
		})
	}
}
