package slurm

import (
	"fmt"
	"io"
)

// WriteQueue writes an squeue-style snapshot: every pending and running
// job with its state and, for pending jobs, the reason it waits.
func (c *Controller) WriteQueue(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-10s %-12s %5s %-10s %10s  %s\n",
		"JobID", "JobName", "Nodes", "State", "Wait[s]", "Reason/Nodes"); err != nil {
		return err
	}
	now := c.eng.Now()
	for _, r := range c.pending {
		reason := "Resources"
		if r.held > 0 {
			reason = "Dependency"
		}
		if _, err := fmt.Fprintf(w, "%-10s %-12s %5d %-10s %10.0f  %s\n",
			r.ID, r.Spec.Name, r.Spec.Nodes, r.State, now.Sub(r.Submit).Seconds(), reason); err != nil {
			return err
		}
	}
	// Running jobs in ID order for determinism.
	for _, r := range c.running {
		if _, err := fmt.Fprintf(w, "%-10s %-12s %5d %-10s %10.0f  %v\n",
			r.ID, r.Spec.Name, r.Spec.Nodes, r.State, r.WaitTime().Seconds(), r.Nodes); err != nil {
			return err
		}
	}
	return nil
}
