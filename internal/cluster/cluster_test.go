package cluster

import (
	"math"
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
)

func newTestEnv(t *testing.T, nodes int) (*des.Engine, *Cluster) {
	t.Helper()
	eng := des.NewEngine()
	cfg := pfs.DefaultConfig()
	cfg.NoiseSigma = 0
	cfg.BurstBoost = 1
	cfg.MDSLatency = 0
	cfg.MDSOpsPerSec = 1e9
	fs, err := pfs.New(eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(eng, fs, nodes, "node", 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl
}

func TestNewValidation(t *testing.T) {
	eng := des.NewEngine()
	if _, err := New(eng, nil, 0, "n", 1); err == nil {
		t.Fatal("zero nodes must error")
	}
	cl, err := New(eng, nil, 3, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	names := cl.NodeNames()
	if len(names) != 3 || names[0] != "node001" || names[2] != "node003" {
		t.Fatalf("default prefix names: %v", names)
	}
}

func TestAllocationAccounting(t *testing.T) {
	eng, cl := newTestEnv(t, 15)
	if cl.Size() != 15 || cl.FreeNodes() != 15 || cl.BusyNodes() != 0 {
		t.Fatal("initial accounting")
	}
	exits := 0
	e, err := cl.Start("j1", 4, SleepProgram{D: 10 * des.Second}, func(*Execution) { exits++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Nodes) != 4 || cl.FreeNodes() != 11 || cl.BusyNodes() != 4 {
		t.Fatalf("after start: nodes=%v free=%d", e.Nodes, cl.FreeNodes())
	}
	if got, ok := cl.Running("j1"); !ok || got != e {
		t.Fatal("Running lookup")
	}
	if cl.RunningCount() != 1 {
		t.Fatal("RunningCount")
	}
	eng.Run(des.TimeFromSeconds(20))
	if exits != 1 || cl.FreeNodes() != 15 {
		t.Fatalf("after exit: exits=%d free=%d", exits, cl.FreeNodes())
	}
	if !e.Ended() || e.Exit != ExitCompleted || e.EndedAt != des.TimeFromSeconds(10) {
		t.Fatalf("execution record: %+v", e)
	}
}

func TestStartErrors(t *testing.T) {
	_, cl := newTestEnv(t, 3)
	if _, err := cl.Start("j1", 0, SleepProgram{D: des.Second}, nil); err == nil {
		t.Fatal("zero nodes must error")
	}
	if _, err := cl.Start("j1", 4, SleepProgram{D: des.Second}, nil); err == nil {
		t.Fatal("over-allocation must error")
	}
	if _, err := cl.Start("j1", 1, SleepProgram{D: des.Second}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Start("j1", 1, SleepProgram{D: des.Second}, nil); err == nil {
		t.Fatal("duplicate job ID must error")
	}
}

func TestKillReleasesNodesAndCancelsWork(t *testing.T) {
	eng, cl := newTestEnv(t, 2)
	var exit *Execution
	_, err := cl.Start("j1", 1, WriteProgram{Threads: 2, BytesPerThread: 100 * pfs.GiB},
		func(e *Execution) { exit = e })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(des.TimeFromSeconds(5))
	if !cl.Kill("j1") {
		t.Fatal("kill failed")
	}
	if exit == nil || exit.Exit != ExitKilled || exit.Exit.String() != "killed" {
		t.Fatalf("exit: %+v", exit)
	}
	if cl.FreeNodes() != 2 || len(cl.FS().CurrentNodeRates(nil)) != 0 {
		t.Fatalf("kill must release nodes (%d) and streams (%d)",
			cl.FreeNodes(), len(cl.FS().CurrentNodeRates(nil)))
	}
	eng.Run(des.TimeFromSeconds(10000))
	if exit.Exit != ExitKilled {
		t.Fatal("done must not fire after stop")
	}
	if cl.Kill("j1") {
		t.Fatal("double kill must fail")
	}
	if cl.Kill("ghost") {
		t.Fatal("killing unknown job must fail")
	}
}

func TestSleepProgramDuration(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	var end *Execution
	_, _ = cl.Start("s", 1, SleepProgram{D: 600 * des.Second}, func(e *Execution) { end = e })
	eng.Run(des.TimeFromSeconds(7200))
	if end == nil || end.EndedAt != des.TimeFromSeconds(600) || end.Exit.String() != "completed" {
		t.Fatalf("sleep exit: %+v", end)
	}
}

func TestWriteProgramTransfersAllBytes(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	var end *Execution
	_, _ = cl.Start("w", 1, WriteProgram{Threads: 8, BytesPerThread: 10 * pfs.GiB},
		func(e *Execution) { end = e })
	eng.Run(des.TimeFromSeconds(36000))
	if end == nil || end.Exit != ExitCompleted {
		t.Fatal("write job must complete")
	}
	got := cl.FS().TotalCounters().WriteBytes
	if math.Abs(got-80*pfs.GiB) > 16 {
		t.Fatalf("total bytes = %g, want 80 GiB", got)
	}
	// All I/O must be attributed to the job's single node.
	nodeBytes := cl.FS().Client(end.Nodes[0]).Counters().WriteBytes
	if math.Abs(nodeBytes-80*pfs.GiB) > 16 {
		t.Fatalf("node attribution = %g", nodeBytes)
	}
}

func TestWriteProgramSpreadsThreadsAcrossNodes(t *testing.T) {
	eng, cl := newTestEnv(t, 4)
	var end *Execution
	_, _ = cl.Start("w", 4, WriteProgram{Threads: 8, BytesPerThread: pfs.GiB},
		func(e *Execution) { end = e })
	eng.Run(des.TimeFromSeconds(36000))
	for _, n := range end.Nodes {
		b := cl.FS().Client(n).Counters().WriteBytes
		if math.Abs(b-2*pfs.GiB) > 16 { // 8 threads round-robin over 4 nodes
			t.Fatalf("node %s got %g bytes, want 2 GiB", n, b)
		}
	}
}

func TestReadProgram(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	done := false
	_, _ = cl.Start("r", 1, ReadProgram{Threads: 2, BytesPerThread: pfs.GiB},
		func(*Execution) { done = true })
	eng.Run(des.TimeFromSeconds(36000))
	if !done {
		t.Fatal("read job must complete")
	}
	c := cl.FS().TotalCounters()
	if math.Abs(c.ReadBytes-2*pfs.GiB) > 16 || c.WriteBytes != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestPhasedProgramRunsSequentially(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	var endAt des.Time
	prog := PhasedProgram{Phases: []Program{
		SleepProgram{D: 100 * des.Second},
		SleepProgram{D: 50 * des.Second},
	}}
	_, _ = cl.Start("p", 1, prog, func(e *Execution) { endAt = e.EndedAt })
	eng.Run(des.TimeFromSeconds(7200))
	if endAt != des.TimeFromSeconds(150) {
		t.Fatalf("phased end at %v, want 150s", endAt)
	}
}

func TestPhasedProgramStopMidPhase(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	completed := false
	prog := PhasedProgram{Phases: []Program{
		SleepProgram{D: 100 * des.Second},
		WriteProgram{Threads: 1, BytesPerThread: 500 * pfs.GiB},
	}}
	_, _ = cl.Start("p", 1, prog, func(e *Execution) { completed = e.Exit == ExitCompleted })
	eng.Run(des.TimeFromSeconds(110)) // inside the write phase
	cl.Kill("p")
	eng.Run(des.TimeFromSeconds(7200))
	if completed {
		t.Fatal("killed phased job must not complete")
	}
	if len(cl.FS().CurrentNodeRates(nil)) != 0 {
		t.Fatal("streams must be cancelled")
	}
}

func TestBurstyProgram(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	var endAt des.Time
	prog := BurstyProgram{Cycles: 3, Compute: 60 * des.Second, Threads: 1, BytesPerThread: 4 * pfs.GiB}
	_, _ = cl.Start("b", 1, prog, func(e *Execution) { endAt = e.EndedAt })
	eng.Run(des.TimeFromSeconds(36000))
	// Each cycle: 60 s compute + 4 GiB / 0.40 GiB/s = 10 s write → 70 s.
	want := 3 * 70.0
	if math.Abs(endAt.Seconds()-want) > 1 {
		t.Fatalf("bursty end at %.1fs, want ~%.0fs", endAt.Seconds(), want)
	}
}

func TestProgramPanics(t *testing.T) {
	eng, cl := newTestEnv(t, 1)
	cases := []Program{
		WriteProgram{Threads: 0, BytesPerThread: 1},
		ReadProgram{Threads: 0, BytesPerThread: 1},
		PhasedProgram{},
		BurstyProgram{Cycles: 0},
	}
	for i, prog := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("program %d must panic", i)
				}
			}()
			_, _ = cl.Start("x", 1, prog, nil)
		}()
		cl.Kill("x")
	}
	_ = eng
}

func TestNodeReuseIsDeterministic(t *testing.T) {
	run := func() []string {
		eng, cl := newTestEnv(t, 5)
		var got []string
		for i := 0; i < 3; i++ {
			e, _ := cl.Start(string(rune('a'+i)), 1, SleepProgram{D: des.Duration(i+1) * des.Second}, nil)
			got = append(got, e.Nodes[0])
		}
		eng.Run(des.TimeFromSeconds(100))
		e, _ := cl.Start("z", 2, SleepProgram{D: des.Second}, nil)
		got = append(got, e.Nodes...)
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation order differs: %v vs %v", a, b)
		}
	}
}
