package sched

import (
	"testing"

	"wasched/internal/des"
	"wasched/internal/restrack"
)

// TestQuietBandEdges drives the adjusted target R̃' across both edges of
// an adaptive round's quiet band while nothing else changes: no job starts,
// finishes or arrives, and now stays before the round's wake time. Inside
// the band session.Quiet skips, and a fresh round at that now decides
// exactly as the executed one did; past either edge it does not skip, and a
// fresh round decides differently, so neither edge is wider than exact.
func TestQuietBandEdges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int
		running  []*Job // all started at 0
		waiting  []*Job
		band     restrack.Band
		quiet    []int64 // nows (s) inside the band
		notQuiet []int64 // nows (s) past its edge
	}{
		{
			// R̃' = 8·500 / (6·(600−now) + 100) rises as z's remaining
			// shrinks (a's estimate ran out at 1 s). AT holds a's rate 2
			// until 1000 s, so b is planned at 1000 s until R̃' reaches 2,
			// just past now = 283 s; from then b fits now.
			name:  "rises past the least violating value",
			nodes: 8,
			running: []*Job{
				estjob("a", 1, 1000*sec, 2, 1*sec),
				estjob("z", 6, 1000*sec, 0, 600*sec),
			},
			waiting:  []*Job{estjob("b", 1, 100*sec, 5, 0)},
			band:     restrack.Band{Fit: 0, Viol: 2},
			quiet:    []int64{100, 200, 283},
			notQuiet: []int64{284, 500},
		},
		{
			// R̃' = 4·(8100 − 4·now) / (22100 − 2·now) falls as a's
			// remaining shrinks. AT holds 4 until 1000 s and c's 1 until
			// 5000 s, so b is planned at 1000 s until R̃' drops below 1,
			// just past now = 735 s; from then b must wait for 5000 s.
			name:  "falls below the largest fitting value",
			nodes: 4,
			running: []*Job{
				estjob("a", 1, 1000*sec, 3, 1000*sec),
				estjob("c", 1, 5000*sec, 1, 5000*sec),
			},
			waiting: []*Job{
				estjob("b", 1, 100*sec, 1, 100*sec),
				estjob("w", 4, 4000*sec, 0, 4000*sec),
			},
			band:     restrack.Band{Fit: 1, Viol: 4},
			quiet:    []int64{300, 600, 735},
			notQuiet: []int64{736, 900},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := AdaptivePolicy{TotalNodes: tc.nodes, ThroughputLimit: 1000}
			s := newSession(p)
			for _, j := range tc.running {
				s.JobStarted(j)
			}
			input := func(now int64) RoundInput {
				return RoundInput{Now: tsec(now), Running: tc.running, Waiting: tc.waiting}
			}
			var rn runner
			rt := s.BeginRound(input(0))
			want := decisionsByID(rn.run(p, rt, input(0), Options{}))
			if d := want["b"]; !d.Reserved || d.PlannedStart != tsec(1000) {
				t.Fatalf("b at now 0: %+v, want planned at 1000 s", d)
			}
			if got := s.rnd.ov.band; got != tc.band {
				t.Fatalf("band %+v, want %+v", got, tc.band)
			}
			sameAsFresh := func(now int64) bool {
				ds, _ := RunRound(p, input(now), Options{})
				for id, d := range decisionsByID(ds) {
					if w := want[id]; d.StartNow != w.StartNow || d.Reserved != w.Reserved || d.PlannedStart != w.PlannedStart {
						return false
					}
				}
				return true
			}
			for _, now := range tc.quiet {
				if !s.Quiet(input(now)) {
					t.Errorf("now %d s: R̃' %g inside the band, not quiet", now, p.target(input(now)))
				}
				// A quiet round adopts the targets at its now.
				_, frt := RunRound(p, input(now), Options{})
				got, fresh := rt.(Diagnoser).Diagnostics(), frt.(Diagnoser).Diagnostics()
				if got["target"] != fresh["target"] || got["adjusted_target"] != fresh["adjusted_target"] {
					t.Errorf("now %d s: quiet round's targets %v, a fresh round's %v", now, got, fresh)
				}
				if !sameAsFresh(now) {
					t.Errorf("now %d s: a fresh round decides differently inside the band", now)
				}
			}
			for _, now := range tc.notQuiet {
				if s.Quiet(input(now)) {
					t.Errorf("now %d s: R̃' %g past the band edge, quiet", now, p.target(input(now)))
				}
				if sameAsFresh(now) {
					t.Errorf("now %d s: a fresh round decides the same past the band edge", now)
				}
			}
		})
	}
}

// TestCarryConditions runs one round with a session, starts what it
// starts, and asks Carry 30 s later. Under io-aware, a (2 of 4 nodes)
// starts at 0 s and b (4 nodes) is planned at 1000 s, when a's limit
// ends; with a started, a fresh round at 30 s makes that same plan, so
// Carry extends it and the next idle round is quiet. Each refusal changes
// one thing the carried plan cannot absorb; the adaptive cases add the
// overlay's split, band and AT order.
func TestCarryConditions(t *testing.T) {
	io := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 100}
	type step struct {
		now      int64
		measured float64
	}
	// carry runs the round at 0 s under p, then asks Carry at next.
	carry := func(p Policy, first, next step) (*session, bool) {
		a, b := iojob("a", 2, 1000*sec, 10), iojob("b", 4, 100*sec, 10)
		s := newSession(p)
		in := RoundInput{Waiting: []*Job{a, b}, MeasuredThroughput: first.measured}
		var rn runner
		var running, waiting []*Job
		for _, d := range rn.run(p, s.BeginRound(in), in, Options{}) {
			if d.StartNow {
				d.Job.StartedAt = 0
				s.JobStarted(d.Job)
				running = append(running, d.Job)
			} else {
				waiting = append(waiting, d.Job)
			}
		}
		_, ok := s.Carry(RoundInput{Now: tsec(next.now), Running: running, Waiting: waiting,
			MeasuredThroughput: next.measured})
		return s, ok
	}
	plain := step{now: 30, measured: 10}
	// bb+ and tbf+ implement WindowOrderer but keep their inner order.
	for _, p := range []Policy{BBAwarePolicy{Inner: io, Capacity: 1}, TBFAwarePolicy{Inner: io}} {
		if _, ok := carry(p, step{}, plain); !ok {
			t.Errorf("%s round at 30 s not carried", p.Name())
		}
	}
	s, ok := carry(io, step{}, plain)
	if !ok {
		t.Fatal("io-aware round at 30 s not carried")
	}
	fresh, _ := RunRound(io, RoundInput{Now: tsec(30), Running: []*Job{running("a", 2, 1000*sec, 0)},
		Waiting: []*Job{iojob("b", 4, 100*sec, 10)}}, Options{})
	if d := fresh[0]; !d.Reserved || d.PlannedStart != tsec(1000) {
		t.Fatalf("fresh round at 30 s: %+v, want b planned at 1000 s", d)
	}
	idle := RoundInput{Now: tsec(60), Running: []*Job{running("a", 2, 1000*sec, 0)},
		Waiting: []*Job{iojob("b", 4, 100*sec, 10)}, MeasuredThroughput: 10}
	if !s.Quiet(idle) {
		t.Error("idle round after the carried one not quiet")
	}

	for _, tc := range []struct {
		name        string
		p           Policy
		first, next step
	}{
		{"now reaches the planned start", io, step{}, step{now: 1000, measured: 10}},
		{"the guard books now", io, step{}, step{now: 30, measured: 50}},
		{"the guard booked then", io, step{measured: 50}, plain},
		{"tetris+", TetrisPolicy{Inner: io, TotalNodes: 4, ThroughputLimit: 100}, step{}, plain},
	} {
		if _, ok := carry(tc.p, tc.first, tc.next); ok {
			t.Errorf("%s: carried", tc.name)
		}
	}

	// Adaptive rounds: each case runs the round at 0 s, starts what it
	// starts and asks Carry at a later now over the rest of the queue.
	// Where it matters, a fresh round at that now is shown to plan the
	// waiting jobs as the carried round did, or not.
	two := AdaptivePolicy{TotalNodes: 16, ThroughputLimit: 1000, TwoGroup: true}
	naive := AdaptivePolicy{TotalNodes: 4, ThroughputLimit: 1000}
	// The two-group cases share one queue shape. Every zero job moves 6
	// bytes/s; r* = 2 and r̄_zero = 6 whether or not z1 or s is queued,
	// and a 12-node blocker leaves 4 nodes free until 1000 s.
	blocker := func() *Job { return running("blocker", 12, 1000*sec, 0) }
	z1 := func() *Job { return estjob("z1", 4, 1000*sec, 6, 25*sec) }    // r/n 1.5, zero
	z2 := func() *Job { return estjob("z2", 6, 1000*sec, 6, 20*sec) }    // r/n 1, zero
	z3 := func() *Job { return estjob("z3", 3, 1000*sec, 6, 150*sec) }   // r/n 2, zero
	g := func() *Job { return estjob("g", 3, 1000*sec, 30, 100*sec) }    // r/n 10, regular, adjusted 12
	neg := func() *Job { return estjob("s", 2, 1000*sec, 6, 50*sec) }    // r/n 3, regular, adjusted -6
	pos := func(l des.Duration) *Job { return estjob("s", 1, l, 10, 0) } // naive: regular, adjusted 10
	for _, tc := range []struct {
		name     string
		p        AdaptivePolicy
		run      []*Job
		wait     []*Job
		now      int64
		carries  bool
		samePlan int // 1: a fresh round plans as the carried one; -1: it does not; 0: not checked
	}{
		{
			// R̃' = 8·500 / (6·(600−now) + 100) (TestQuietBandEdges): b is
			// planned at 1000 s while R̃' stays below a's AT value 2.
			name:    "band holds",
			p:       AdaptivePolicy{TotalNodes: 8, ThroughputLimit: 1000},
			run:     []*Job{estjob("a", 1, 1000*sec, 2, 1*sec), estjob("z", 6, 1000*sec, 0, 600*sec)},
			wait:    []*Job{estjob("b", 1, 100*sec, 5, 0)},
			now:     200,
			carries: true, samePlan: 1,
		},
		{
			name:     "band broken",
			p:        AdaptivePolicy{TotalNodes: 8, ThroughputLimit: 1000},
			run:      []*Job{estjob("a", 1, 1000*sec, 2, 1*sec), estjob("z", 6, 1000*sec, 0, 600*sec)},
			wait:     []*Job{estjob("b", 1, 100*sec, 5, 0)},
			now:      300,
			samePlan: -1,
		},
		{
			// z1 and the other zero jobs all move 6 bytes/s, so r̄_zero
			// stays 6 once z1 leaves the queue; z1 then books −18 in AT.
			name: "zero job with r̄_zero > 0 starts",
			p:    two,
			run:  []*Job{blocker()},
			wait: []*Job{z1(), z2(), z3(), g()},
			now:  30,
		},
		{
			// z2 waits for the blocker's nodes; s starts behind it and
			// books −6 in AT.
			name: "negative regular starts behind a deferral",
			p:    two,
			run:  []*Job{blocker()},
			wait: []*Job{z2(), neg(), z3(), g()},
			now:  30,
		},
		{
			// a starts first, and without its node·seconds the zero group
			// needs only z (r/n 0.75): r* falls from 2 to 0.75.
			name: "split moved",
			p:    two,
			run:  []*Job{blocker()},
			wait: []*Job{estjob("a", 1, 1000*sec, 10, 300*sec), estjob("z", 4, 1000*sec, 3, 100*sec),
				estjob("z'", 4, 1000*sec, 8, 25*sec), estjob("h", 5, 1000*sec, 50, 20*sec)},
			now: 30,
		},
		{
			// q (3 of 4 nodes) waits for the blocker until 1000 s; s (1
			// node, rate 10) starts behind it and ends at 900 s, before q's
			// window, and w (rate 0) fills the rest.
			name:    "positive start clear of a reservation",
			p:       naive,
			run:     []*Job{running("blocker", 2, 1000*sec, 0)},
			wait:    []*Job{iojob("q", 3, 100*sec, 1), pos(900 * sec), iojob("w", 4, 5000*sec, 0)},
			now:     30,
			carries: true, samePlan: 1,
		},
		{
			// The same with s running until 1500 s: its rate 10 lies in
			// q's window, above R̃' ≈ 2.5, so a fresh round moves q to
			// 1500 s.
			name:     "positive start inside a reservation",
			p:        naive,
			run:      []*Job{running("blocker", 2, 1000*sec, 0)},
			wait:     []*Job{iojob("q", 3, 100*sec, 1), pos(1500 * sec), iojob("w", 4, 5000*sec, 0)},
			now:      30,
			samePlan: -1,
		},
	} {
		t.Run("adaptive/"+tc.name, func(t *testing.T) {
			s := newSession(tc.p)
			for _, j := range tc.run {
				s.JobStarted(j)
			}
			in := RoundInput{Running: tc.run, Waiting: tc.wait}
			var rn runner
			var plan []Decision
			nowRunning := append([]*Job(nil), tc.run...)
			var waiting []*Job
			for _, d := range rn.run(tc.p, s.BeginRound(in), in, Options{}) {
				if d.StartNow {
					d.Job.StartedAt = 0
					s.JobStarted(d.Job)
					nowRunning = append(nowRunning, d.Job)
				} else {
					waiting = append(waiting, d.Job)
					plan = append(plan, d)
				}
			}
			next := RoundInput{Now: tsec(tc.now), Running: nowRunning, Waiting: waiting}
			rt, ok := s.Carry(next)
			fresh, frt := RunRound(tc.p, next, Options{})
			if ok != tc.carries {
				t.Fatalf("carried %v, want %v", ok, tc.carries)
			}
			if ok {
				if got, want := rt.(Diagnoser).Diagnostics(), frt.(Diagnoser).Diagnostics(); got["target"] != want["target"] || got["adjusted_target"] != want["adjusted_target"] {
					t.Errorf("carried targets %v, a fresh round's %v", got, want)
				}
			}
			same := len(fresh) == len(plan)
			for i := 0; same && i < len(fresh); i++ {
				same = fresh[i] == plan[i]
			}
			if tc.samePlan != 0 && same != (tc.samePlan > 0) {
				t.Errorf("a fresh round plans %+v, the carried plan is %+v", fresh, plan)
			}
		})
	}
}

// TestQuietConditions runs one io-aware round with a session at 0 s, in
// which a (1 of 4 nodes, rate 10) runs and b waits for 1000 s, and asks
// Quiet at 30 s with nothing else changed but the measured throughput. A
// quiet answer must agree with a fresh round; the refusals where a fresh
// round decides differently show the condition is needed, and the others
// that it is checked as stated.
func TestQuietConditions(t *testing.T) {
	p := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 100}
	type step struct {
		measured float64
	}
	for _, tc := range []struct {
		name        string
		bNodes      int
		bRate       float64
		first, next step
		quiet, same bool
	}{
		// The guard books 70 − 10 over a's window, so b (rate 50) waits
		// for a's end; at 30 the same excess is booked.
		{"measurement bit-equal while the guard booked", 1, 50, step{measured: 70}, step{measured: 70}, true, true},
		// At 30 the guard books only 20, and b fits now.
		{"measurement moves while the guard booked", 1, 50, step{measured: 70}, step{measured: 30}, false, false},
		// At 30 the estimates explain the measurement: the guard books
		// nothing, and b fits now.
		{"guard booked then, books nothing now", 1, 50, step{measured: 70}, step{measured: 5}, false, false},
		// b (4 nodes) waits for a's node; the guard books nothing at
		// either time, whatever the measurement.
		{"measurement moves, no guard then or now", 4, 0, step{measured: 5}, step{measured: 8}, true, true},
		{"measurement moves, the guard books now", 4, 0, step{measured: 5}, step{measured: 50}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := running("a", 1, 1000*sec, 0)
			a.Rate = 10
			b := iojob("b", tc.bNodes, 100*sec, tc.bRate)
			s := newSession(p)
			s.JobStarted(a)
			input := func(now int64, st step) RoundInput {
				return RoundInput{Now: tsec(now), Running: []*Job{a}, Waiting: []*Job{b},
					MeasuredThroughput: st.measured}
			}
			var rn runner
			in := input(0, tc.first)
			last := rn.run(p, s.BeginRound(in), in, Options{})[0]
			if !last.Reserved || last.PlannedStart != tsec(1000) {
				t.Fatalf("b at 0 s: %+v, want planned at 1000 s", last)
			}
			in = input(30, tc.next)
			if got := s.Quiet(in); got != tc.quiet {
				t.Errorf("quiet %v, want %v", got, tc.quiet)
			}
			fresh, _ := RunRound(p, in, Options{})
			if same := fresh[0] == last; same != tc.same {
				t.Errorf("a fresh round at 30 s decides %+v, the round at 0 s %+v", fresh[0], last)
			}
		})
	}

	// JobUpdated re-books a running job's changed, clamped rate from now:
	// the base then equals one built with the new rate from the start,
	// over [now, ∞), and the job's finish releases what it holds.
	t.Run("JobUpdated equals a rebuilt base", func(t *testing.T) {
		a := running("a", 1, 1000*sec, 0)
		a.Rate = 10
		s := newSession(p)
		s.JobStarted(a)
		a.Rate = 500 // clamped to the limit, 100
		s.JobUpdated(a, 10, tsec(100))
		rebuilt := newSession(p)
		rebuilt.JobStarted(a)
		got, want := s.base, rebuilt.base
		for _, at := range []int64{100, 500, 999, 1000, 2000} {
			for i := range got {
				if g, w := got[i].ValueAt(tsec(at)), want[i].ValueAt(tsec(at)); g != w {
					t.Errorf("dimension %d at %d s: %g, rebuilt %g", i, at, g, w)
				}
			}
		}
		if v := got[1].ValueAt(tsec(50)); v != 10 {
			t.Errorf("rate before the update %g, want 10", v)
		}
		// c (rate 30) fits beside a's old rate, not beside its new one.
		c := iojob("c", 1, 100*sec, 30)
		in := RoundInput{Now: tsec(120), Running: []*Job{a}, Waiting: []*Job{c}}
		var rn runner
		fresh, _ := RunRound(p, in, Options{})
		if got := rn.run(p, s.BeginRound(in), in, Options{})[0]; got != fresh[0] || got.StartNow {
			t.Errorf("session round %+v, fresh round %+v; want c planned at a's end", got, fresh[0])
		}
		s.JobFinished(a, tsec(600))
		for i := range got {
			if v := got[i].ValueAt(tsec(600)); v != 0 {
				t.Errorf("dimension %d after a finished: %g", i, v)
			}
		}
	})
}
