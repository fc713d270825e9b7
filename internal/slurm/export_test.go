package slurm

// CheckQuietRounds holds every round c skips as quiet and every round it
// carries to a from-scratch sched.RunRound over the same input
// (sched.Driver.CheckSkippedRounds): the fresh round must make the kept
// plan's decisions, a quiet one must start nothing, and its adaptive
// target and adjusted target must be the ones c's diagnostics report.
// Each difference goes to fail.
func CheckQuietRounds(c *Controller, fail func(format string, args ...any)) {
	c.drv.CheckSkippedRounds(func(detail string) { fail("%s", detail) })
}

// SkippedRounds returns how many rounds c skipped as quiet and how many
// it carried.
func SkippedRounds(c *Controller) (quiet, carried int) {
	_, carried, quiet = c.drv.Rounds()
	return quiet, carried
}

// idle reports whether no work remains (empty queue, nothing running).
func idle(c *Controller) bool { return c.QueueLength() == 0 && c.RunningCount() == 0 }

// countRequeues counts c's preemption requeues from now on.
func countRequeues(c *Controller) *int {
	n := new(int)
	c.OnEvent(func(e Event) {
		if e.Kind == EventRequeue {
			*n++
		}
	})
	return n
}
