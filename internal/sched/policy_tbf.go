package sched

// TBFPolicy schedules on node availability only, like NodePolicy, but
// declares that running jobs' PFS bandwidth is regulated client-side by
// the token-bucket layer (internal/tbf) instead of central reservations —
// the AdapTBF design point (Rashid & Dai, PAPERS.md), the opposite of the
// paper's R_limit licenses. The scheduler deliberately carries no
// bandwidth tracker: admission is node-only, and contention is resolved
// at run time by per-job buckets with adaptive borrowing. The Straggler
// variant additionally turns on straggler-aware request ordering in the
// token layer (Tavakoli et al., PAPERS.md), which re-weights per-job
// grants away from slow PFS servers; the scheduling decision procedure is
// identical, so the two variants isolate the ordering effect.
type TBFPolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
	// Straggler enables straggler-aware request ordering in the token
	// layer (reflected in Name so traces distinguish the variants).
	Straggler bool
}

// Name implements Policy.
func (p TBFPolicy) Name() string {
	if p.Straggler {
		return "tbf-straggler"
	}
	return "tbf"
}

// NewRound implements Policy. The reservation model is NodePolicy's: the
// token layer, not the scheduler, owns bandwidth.
func (p TBFPolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }

// TBFAwarePolicy wraps any inner policy so its schedule runs under the
// token-bucket bandwidth layer (the `tbf+<policy>` family). The wrapper
// changes no scheduling decision — rounds and window ordering delegate to
// the inner policy verbatim — it only renames the policy so traces and
// ablations attribute the run to the combined configuration, and signals
// the environment (core wiring, the replayer) to arm the token layer.
type TBFAwarePolicy struct {
	// Inner supplies the reservation model.
	Inner Policy
}

// Name implements Policy.
func (p TBFAwarePolicy) Name() string { return "tbf+" + p.Inner.Name() }

// NewRound implements Policy with the inner policy's model.
func (p TBFAwarePolicy) NewRound(in RoundInput) Round { return newRound(p, p.Inner, in) }

// OrderWindow implements WindowOrderer when the inner policy does.
func (p TBFAwarePolicy) OrderWindow(in RoundInput, window []*Job) {
	if wo, ok := p.Inner.(WindowOrderer); ok {
		wo.OrderWindow(in, window)
	}
}
