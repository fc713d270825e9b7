package sched

import (
	"testing"
)

func TestTetrisName(t *testing.T) {
	p := TetrisPolicy{Inner: NodePolicy{TotalNodes: 4}, TotalNodes: 4}
	if p.Name() != "tetris+default" {
		t.Fatalf("name: %s", p.Name())
	}
}

func TestTetrisPanics(t *testing.T) {
	for i, p := range []TetrisPolicy{
		{Inner: nil, TotalNodes: 4},
		{Inner: NodePolicy{TotalNodes: 4}, TotalNodes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d must panic", i)
				}
			}()
			p.NewRound(RoundInput{})
		}()
	}
}

func TestTetrisOrderWindowPrefersAlignedJobs(t *testing.T) {
	p := TetrisPolicy{
		Inner:           IOAwarePolicy{TotalNodes: 10, ThroughputLimit: 10},
		TotalNodes:      10,
		ThroughputLimit: 10,
	}
	// Running jobs consume most of the bandwidth but few nodes: nodes are
	// plentiful, bandwidth scarce → node-heavy/IO-light jobs align best.
	r1 := iojob("r1", 1, 100*sec, 8)
	r1.StartedAt = 0
	in := RoundInput{Now: tsec(10), Running: []*Job{r1}}
	ioHeavy := iojob("io", 1, 50*sec, 9)
	nodeHeavy := iojob("cpu", 6, 50*sec, 0)
	window := []*Job{ioHeavy, nodeHeavy}
	p.OrderWindow(in, window)
	if window[0] != nodeHeavy {
		t.Fatalf("node-heavy job must come first when bandwidth is scarce: %v", ids(window))
	}

	// Flip the scarcity: running jobs consume most nodes, no bandwidth.
	r2 := iojob("r2", 9, 100*sec, 0)
	r2.StartedAt = 0
	in = RoundInput{Now: tsec(10), Running: []*Job{r2}}
	window = []*Job{nodeHeavy, ioHeavy}
	p.OrderWindow(in, window)
	if window[0] != ioHeavy {
		t.Fatalf("io-heavy job must come first when nodes are scarce: %v", ids(window))
	}
}

func TestTetrisOrderIsStableOnTies(t *testing.T) {
	p := TetrisPolicy{Inner: NodePolicy{TotalNodes: 4}, TotalNodes: 4}
	a := job("a", 1, 10*sec)
	b := job("b", 1, 10*sec)
	c := job("c", 1, 10*sec)
	window := []*Job{a, b, c}
	p.OrderWindow(RoundInput{}, window)
	if window[0] != a || window[1] != b || window[2] != c {
		t.Fatalf("ties must keep queue order: %v", ids(window))
	}
}

func TestTetrisRunRoundReordersOnlyWindow(t *testing.T) {
	p := TetrisPolicy{
		Inner:           IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 10},
		TotalNodes:      4,
		ThroughputLimit: 10,
	}
	// Bandwidth nearly exhausted by a running job; a queue with an
	// IO-heavy job first. TETRIS reorders so the CPU job is examined (and
	// started) first; under FIFO the IO job would be first and would
	// reserve, not start.
	r1 := iojob("r1", 1, 100*sec, 9)
	r1.StartedAt = 0
	ioJob := iojob("io", 1, 50*sec, 5)
	cpuJob := iojob("cpu", 2, 50*sec, 0)
	in := RoundInput{Now: tsec(10), Running: []*Job{r1}, Waiting: []*Job{ioJob, cpuJob}}
	ds, _ := RunRound(p, in, Options{})
	if ds[0].Job != cpuJob || !ds[0].StartNow {
		t.Fatalf("tetris must examine the cpu job first: %+v", ds)
	}
	// The caller's queue slice must be untouched.
	if in.Waiting[0] != ioJob {
		t.Fatal("RunRound must not mutate the caller's queue")
	}
}

func TestTetrisHonoursMaxJobTest(t *testing.T) {
	p := TetrisPolicy{Inner: NodePolicy{TotalNodes: 1}, TotalNodes: 1}
	var waiting []*Job
	for i := 0; i < 10; i++ {
		waiting = append(waiting, job(string(rune('a'+i)), 1, 10*sec))
	}
	ds, _ := RunRound(p, RoundInput{Waiting: waiting}, Options{MaxJobTest: 4})
	if len(ds) != 4 {
		t.Fatalf("examined %d, want 4", len(ds))
	}
}

// TestRunnerCopiesOnlyReorderedWindows runs the same round through the
// wrappers that pass a window order through: around tetris+ they reorder
// as tetris+ does, around a policy that keeps queue order they copy no
// window.
func TestRunnerCopiesOnlyReorderedWindows(t *testing.T) {
	io := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 10}
	tetris := TetrisPolicy{Inner: io, TotalNodes: 4, ThroughputLimit: 10}
	for _, tc := range []struct {
		p        Policy
		reorders bool
	}{
		{BBAwarePolicy{Inner: io, Capacity: 1}, false},
		{TBFAwarePolicy{Inner: BBAwarePolicy{Inner: io, Capacity: 1}}, false},
		{BBAwarePolicy{Inner: tetris, Capacity: 1}, true},
		{TBFAwarePolicy{Inner: tetris}, true},
	} {
		r1 := running("r1", 1, 100*sec, 0)
		r1.Rate = 9
		ioJob, cpuJob := iojob("io", 1, 50*sec, 5), iojob("cpu", 2, 50*sec, 0)
		in := RoundInput{Now: tsec(10), Running: []*Job{r1}, Waiting: []*Job{ioJob, cpuJob}}
		var rn runner
		ds := rn.run(tc.p, tc.p.NewRound(in), in, Options{})
		if got := ds[0].Job == cpuJob; got != tc.reorders {
			t.Errorf("%s: examined %s first", tc.p.Name(), ds[0].Job.ID)
		}
		if copied := len(rn.window) > 0; copied != tc.reorders {
			t.Errorf("%s: window copied %v, want %v", tc.p.Name(), copied, tc.reorders)
		}
	}
}
