package slurm

import (
	"fmt"
	"io"
	"sort"
)

// WriteAccounting writes an sacct-style table of every job the controller
// knows about (pending, running and finished), in job-ID order. Times are
// simulation seconds; unset times print as "-".
func (c *Controller) WriteAccounting(w io.Writer) error {
	ids := make([]string, 0, len(c.byID))
	for id := range c.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if _, err := fmt.Fprintf(w, "%-10s %-12s %5s %10s %10s %10s %10s %10s %-10s\n",
		"JobID", "JobName", "Nodes", "Submit", "Start", "End", "Wait", "Elapsed", "State"); err != nil {
		return err
	}
	for _, id := range ids {
		r := c.byID[id]
		start, end, wait, elapsed := "-", "-", "-", "-"
		if r.State != StatePending {
			start = fmt.Sprintf("%.1f", r.Start.Seconds())
			wait = fmt.Sprintf("%.1f", r.WaitTime().Seconds())
		}
		if r.State == StateCompleted || r.State == StateTimeout {
			end = fmt.Sprintf("%.1f", r.End.Seconds())
			elapsed = fmt.Sprintf("%.1f", r.Runtime().Seconds())
		}
		if _, err := fmt.Fprintf(w, "%-10s %-12s %5d %10.1f %10s %10s %10s %10s %-10s\n",
			r.ID, r.Spec.Name, r.Spec.Nodes, r.Submit.Seconds(),
			start, end, wait, elapsed, r.State); err != nil {
			return err
		}
	}
	return nil
}
