package sched

import (
	"sort"

	"wasched/internal/restrack"
)

// AdaptivePolicy implements the paper's workload-adaptive scheduling (§VII,
// Algorithms 5–7). On every round it computes the target throughput
//
//	R̃ = Σ r_j d_j · N / Σ n_j d_j                     (Eq. 1)
//
// over the queue plus the running jobs' remaining work, splits the queue
// into "zero jobs" and "regular jobs" by the threshold r* (the two-group
// approximation, Eqs. 2–5), and refuses to schedule regular jobs into
// intervals where the adjusted target R̃' is already reached — while still
// enforcing the hard throughput limit like the I/O-aware policy.
type AdaptivePolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
	// ThroughputLimit is the hard limit R_limit in bytes/s.
	ThroughputLimit float64
	// TwoGroup enables the two-group approximation. When false the policy
	// is the "naïve" workload-adaptive scheduler: only jobs with zero
	// estimated throughput count as zero jobs and no adjustment is made.
	TwoGroup bool
	// QoSFraction is the fraction of queued node·seconds guaranteed not
	// to be delayed by throughput regulation (Eq. 2 uses 0.5): the zero
	// group must hold at least this fraction. Zero defaults to 0.5.
	QoSFraction float64
}

// Name implements Policy.
func (p AdaptivePolicy) Name() string {
	if p.TwoGroup {
		return "adaptive"
	}
	return "adaptive-naive"
}

// NewRound implements Policy (Algorithm 5).
func (p AdaptivePolicy) NewRound(in RoundInput) Round { return newRound(p, nil, in) }

// overlay is the adaptive state of a round (Algorithm 5 lines 3–11): the
// target R̃, the two-group split and the adjusted tracker AT. All of it is
// a function of this round's queue and running set, so every executed
// round recomputes it into reused buffers; a carried round keeps it when
// the split has not moved (carry).
type overlay struct {
	target    float64 // R̃
	adjTarget float64 // R̃', AT's limit
	rStar     float64
	rZeroBar  float64
	at        restrack.Profile
	// band holds the largest AT value this round's fits found within R̃'
	// and the least found above it: the range R̃' can drift over before
	// any of those fits would return another time (round.quiet).
	band    restrack.Band
	scratch splitScratch
}

// fill recomputes the overlay for this round.
//
//waschedlint:hotpath
func (o *overlay) fill(p *AdaptivePolicy, in RoundInput) {
	o.target = p.target(in)
	// Lines 6–8: two-group split of the waiting queue.
	o.rStar, o.rZeroBar = p.twoGroupSplit(in.Waiting, &o.scratch)
	o.adjTarget = p.adjustedTarget(o.target, o.rZeroBar)
	o.band.Reset()

	// Lines 9–11: AT, seeded with the running jobs' adjusted contributions
	// r_j − n_j·r̄_zero (signed: a job quieter than the zero-group average
	// credits capacity back, keeping the time-averaged sum equivalent to
	// the original problem, Eq. 5).
	o.at.Reset()
	for _, j := range in.Running {
		o.at.Add(in.Now, j.StartedAt.Add(j.Limit), o.adjusted(j))
	}
}

// carry adopts the targets at in.Now for a carried round when the
// round's plan still holds under them: the split recomputed over in's
// queue is the same, so every zero/regular classification and AT value
// is too, and R̃' keeps every AT value the round's fits examined on the
// same side of the limit (the band; DESIGN.md, "Carried rounds"). The
// band goes on widening with the fits the carried round adds. On false
// the overlay is unchanged.
func (o *overlay) carry(p *AdaptivePolicy, in RoundInput) bool {
	target := p.target(in)
	adj := p.adjustedTarget(target, o.rZeroBar)
	if !o.band.Holds(0, adj) {
		return false
	}
	if rStar, rZeroBar := p.twoGroupSplit(in.Waiting, &o.scratch); rStar != o.rStar || rZeroBar != o.rZeroBar {
		return false
	}
	o.target, o.adjTarget = target, adj
	return true
}

// target is Algorithm 5 lines 3–5, Eq. 1: the target throughput R̃ from
// the remaining I/O volume and the minimum node-constrained completion
// time of the backlog. Session.Quiet recomputes it at a skipped round's
// now, so fill and Quiet share this one copy of the arithmetic.
func (p *AdaptivePolicy) target(in RoundInput) float64 {
	vIO := 0.0     // bytes: Σ r_j · (remaining or estimated runtime)
	nodeSec := 0.0 // node·s: Σ n_j · (remaining or estimated runtime)
	for _, j := range in.Running {
		rem := j.remaining(in.Now).Seconds()
		vIO += clampNonNeg(j.Rate) * rem
		nodeSec += float64(j.Nodes) * rem
	}
	for _, j := range in.Waiting {
		// A malformed queue entry (non-positive limit and no estimate, or
		// negative nodes) must not enter the sums with negative weight: it
		// would drag the target below the workload's real demand. The
		// engine skips such jobs at decision time; skip them here too.
		d := j.estRuntime().Seconds()
		if d <= 0 || j.Nodes < 1 {
			continue
		}
		vIO += clampNonNeg(j.Rate) * d
		nodeSec += float64(j.Nodes) * d
	}
	if nodeSec > 0 {
		return vIO * float64(p.TotalNodes) / nodeSec
	}
	return 0
}

// adjustedTarget is R̃' (Eq. 4), clamped at zero.
func (p *AdaptivePolicy) adjustedTarget(target, rZeroBar float64) float64 {
	adj := target - float64(p.TotalNodes)*rZeroBar
	if adj < 0 {
		return 0
	}
	return adj
}

// isZeroJob applies the two-group classification r_j <= n_j·r*.
func (o *overlay) isZeroJob(j *Job) bool {
	return j.Rate <= float64(j.Nodes)*o.rStar
}

// adjusted is j's AT contribution r_j − n_j·r̄_zero. A rate is an external
// estimate like any other: a NaN or negative value must not poison AT.
func (o *overlay) adjusted(j *Job) float64 {
	return clampNonNeg(j.Rate) - float64(j.Nodes)*o.rZeroBar
}

// splitEntry is one queued job's contribution to the two-group split.
type splitEntry struct {
	ratio   float64 // r_j / n_j
	nodeSec float64 // n_j · d_j
	rate    float64 // r_j
}

// splitScratch is the two-group split's reusable buffer. It implements
// sort.Interface on a pointer receiver so the per-round ratio sort costs
// nothing: a *splitScratch is pointer-shaped (no boxing allocation) and
// there is no sort.Slice closure to heap-allocate.
type splitScratch struct {
	entries []splitEntry
}

func (s *splitScratch) Len() int           { return len(s.entries) }
func (s *splitScratch) Less(a, b int) bool { return s.entries[a].ratio < s.entries[b].ratio }
func (s *splitScratch) Swap(a, b int)      { s.entries[a], s.entries[b] = s.entries[b], s.entries[a] }

// twoGroupSplit chooses the minimum threshold r* such that the zero group
// holds at least QoSFraction of the queued node·seconds (Eq. 2), and
// returns it with the zero group's average per-node load r̄_zero (Eq. 3).
// With TwoGroup disabled it returns (0, 0): only genuinely zero-throughput
// jobs form the zero group and no adjustment applies. sc is reused across
// rounds; its entry slice was the split's dominant allocation.
func (p *AdaptivePolicy) twoGroupSplit(waiting []*Job, sc *splitScratch) (rStar, rZeroBar float64) {
	sc.entries = sc.entries[:0]
	if !p.TwoGroup || len(waiting) == 0 {
		return 0, 0
	}
	frac := p.QoSFraction
	if frac == 0 {
		frac = 0.5
	}
	totalNodeSec := 0.0
	for _, j := range waiting {
		// Defensive guard: the engine and the controller both validate
		// Nodes >= 1, but a zero-node job reaching this division would
		// poison the split with a NaN/Inf ratio, and a negative rate would
		// drag r* (and thus r̄_zero and the adjusted target) below zero.
		if j.Nodes < 1 {
			continue
		}
		rate := clampNonNeg(j.Rate)
		ns := float64(j.Nodes) * j.estRuntime().Seconds()
		// A non-positive duration (limit <= 0 with no estimate) would give
		// the job *negative* node·seconds, pulling r̄_zero and the adjusted
		// target below zero. Such a job is skipped by the engine anyway.
		if ns <= 0 {
			continue
		}
		sc.entries = append(sc.entries, splitEntry{
			ratio:   rate / float64(j.Nodes),
			nodeSec: ns,
			rate:    rate,
		})
		totalNodeSec += ns
	}
	entries := sc.entries
	if len(entries) == 0 {
		return 0, 0
	}
	if totalNodeSec == 0 {
		return 0, 0
	}
	sort.Sort(sc)
	need := frac * totalNodeSec
	cum := 0.0
	i := 0
	for ; i < len(entries); i++ {
		cum += entries[i].nodeSec
		if cum >= need {
			break
		}
	}
	if i == len(entries) {
		i = len(entries) - 1
	}
	rStar = entries[i].ratio
	// All jobs with ratio <= r* are zero jobs, including ties beyond i.
	zeroNodeSec, zeroLoad := 0.0, 0.0
	for _, e := range entries {
		if e.ratio <= rStar {
			zeroNodeSec += e.nodeSec
			zeroLoad += e.rate * e.nodeSec // Eq. 3 numerator: r_j·n_j·d_j
		}
	}
	if zeroNodeSec == 0 {
		return rStar, 0
	}
	return rStar, zeroLoad / zeroNodeSec
}
