package slurm

import (
	"math"

	"wasched/internal/sched"
)

// CheckQuietRounds holds every round c skips as quiet to a from-scratch
// sched.RunRound over the same input: the fresh round must start nothing
// and make exactly the last executed round's decisions, and its adaptive
// target and adjusted target must be the ones c's diagnostics report.
// Each difference goes to fail. The returned counter counts the quiet
// rounds checked.
func CheckQuietRounds(c *Controller, fail func(format string, args ...any)) *int {
	n := new(int)
	c.onQuiet = func(in sched.RoundInput) {
		*n++
		fresh, rt := sched.RunRound(c.policy, in, c.cfg.Options)
		if len(fresh) != len(c.decisions) {
			fail("quiet round at %v: a fresh round decides for %d jobs, the last executed one for %d",
				in.Now, len(fresh), len(c.decisions))
			return
		}
		for i, d := range fresh {
			switch last := c.decisions[i]; {
			case d.StartNow:
				fail("quiet round at %v: a fresh round starts %s now", in.Now, d.Job.ID)
			case d != last:
				fail("quiet round at %v: a fresh round decides %+v for %s, the last executed one %+v",
					in.Now, d, d.Job.ID, last)
			}
		}
		dg, ok := rt.(sched.Diagnoser)
		if !ok {
			return
		}
		want := dg.Diagnostics()
		for _, k := range []string{"target", "adjusted_target"} {
			if got := c.lastDiag[k]; math.Float64bits(got) != math.Float64bits(want[k]) {
				fail("quiet round at %v: %s %v, a fresh round's %v", in.Now, k, got, want[k])
			}
		}
	}
	return n
}
