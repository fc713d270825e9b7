package sched

// NodePolicy schedules on node availability only — the behaviour of the
// default Slurm backfill scheduler the paper compares against (§V). It is
// oblivious to file-system utilisation.
type NodePolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
}

// Name implements Policy.
func (p NodePolicy) Name() string { return "default" }

// NewRound implements Policy: the node tracker NT holds the running jobs'
// allocations until their time limits.
func (p NodePolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }
