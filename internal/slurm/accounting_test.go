package slurm

import (
	"bytes"
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/sched"
)

func TestWriteAccounting(t *testing.T) {
	r := newRig(t, 2, sched.NodePolicy{TotalNodes: 2}, DefaultConfig())
	_, _ = r.ctl.Submit(sleepSpec("done", 10*des.Second, 60*des.Second))
	_, _ = r.ctl.Submit(JobSpec{Name: "writer", Nodes: 1, Limit: 600 * des.Second,
		Program: cluster.WriteProgram{Threads: 1, BytesPerThread: 100 * (1 << 30)}})
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(30)) // done finished, writer running
	_, _ = r.ctl.Submit(sleepSpec("held", 10*des.Second, 60*des.Second))
	var buf bytes.Buffer
	if err := r.ctl.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"JobID", "COMPLETED", "RUNNING", "job-00001", "done", "writer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("accounting missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 4 { // header + 3 jobs
		t.Fatalf("accounting lines: %d\n%s", lines, out)
	}
}

func TestAccountingShowsTerminalStates(t *testing.T) {
	r := newRig(t, 2, sched.NodePolicy{TotalNodes: 2}, DefaultConfig())
	finished, _ := r.ctl.Submit(sleepSpec("finished", 500*des.Second, 900*des.Second))
	doomed, _ := r.ctl.Submit(sleepSpec("doomed", 900*des.Second, 60*des.Second))
	r.ctl.Run()
	r.eng.Run(des.TimeFromSeconds(2000))
	if finished.State != StateCompleted || doomed.State != StateTimeout {
		t.Fatalf("states: %v %v", finished.State, doomed.State)
	}
	var buf bytes.Buffer
	if err := r.ctl.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"COMPLETED", "TIMEOUT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("accounting missing %q:\n%s", want, out)
		}
	}
}
