package main

import (
	"strings"
	"testing"

	"wasched/internal/sched"
)

// -max-cells stops a sweep as if interrupted, which only makes sense with a
// state dir to resume from; without one the sweep is refused before it
// runs a cell.
func TestSweepRunRefusesMaxCellsWithoutStateDir(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "run", "fig6-smoke", "-max-cells", "3"},
		{"sweep", "run", "-max-cells", "1", "fig6-smoke", "-quiet"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-max-cells needs -state-dir") {
			t.Errorf("%v: err %v, want a refusal naming -state-dir", args, err)
		}
	}
	// The refusal comes before the name is looked up.
	if err := run([]string{"sweep", "run", "no-such-experiment", "-max-cells", "3"}); err == nil || !strings.Contains(err.Error(), "-max-cells") {
		t.Errorf("unknown experiment with -max-cells: err %v, want the -max-cells refusal", err)
	}
}

// An unknown -policy is refused before the trace is read, with an error
// that names every registry policy.
func TestReplayUnknownPolicyNamesRegistry(t *testing.T) {
	err := run([]string{"replay", "no-such-trace.swf", "-policy", "bogus", "-quiet"})
	if err == nil {
		t.Fatal("replay -policy bogus succeeded")
	}
	for _, name := range append(sched.PolicyNames(), "all") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}
