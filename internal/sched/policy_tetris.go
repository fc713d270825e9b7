package sched

import (
	"math"
	"sort"
	"sync"
)

// WindowOrderer is an optional Policy interface: a policy that implements
// it reorders the window of queued jobs the backfill engine examines. The
// paper's related work (§VIII) covers multi-resource packing heuristics —
// TETRIS's dot-product alignment [Grandl et al.] and the vector
// bin-packing heuristics [Panigrahy et al.] — that choose job order by
// resource fit rather than priority; this hook lets them plug into the
// same engine for comparison.
type WindowOrderer interface {
	OrderWindow(in RoundInput, window []*Job)
}

// TetrisPolicy wraps an inner multi-resource policy with TETRIS-style
// dot-product ordering: within the examined window, jobs whose demand
// vector (nodes, bandwidth) best aligns with the currently available
// resources are tried first. Priorities and submit order are deliberately
// ignored inside the window — the known fairness trade-off of packing
// schedulers that the paper argues makes them a poor fit for HPC (§VIII);
// this implementation exists as a comparison baseline.
type TetrisPolicy struct {
	// Inner supplies the reservation model (NodePolicy or IOAwarePolicy).
	Inner Policy
	// TotalNodes is the cluster size N (for demand normalisation).
	TotalNodes int
	// ThroughputLimit normalises the bandwidth axis; zero disables it
	// (node-only alignment).
	ThroughputLimit float64
}

// Name implements Policy.
func (p TetrisPolicy) Name() string { return "tetris+" + p.Inner.Name() }

// NewRound implements Policy with the inner policy's model.
func (p TetrisPolicy) NewRound(in RoundInput) Round { return newRound(p, p.Inner, in) }

// OrderWindow implements WindowOrderer: descending alignment between each
// job's normalised demand vector and the normalised available-capacity
// vector, with the original queue position as the tiebreak.
func (p TetrisPolicy) OrderWindow(in RoundInput, window []*Job) {
	if p.TotalNodes <= 0 {
		return // NewRound panics on this; don't divide by it here
	}
	availNodes := float64(p.TotalNodes)
	availBW := p.ThroughputLimit
	for _, j := range in.Running {
		availNodes -= float64(j.Nodes)
		// Rates are external estimates: a NaN here would make every score
		// NaN, and a NaN-laden comparator gives sort.SliceStable no
		// consistent order — the window shuffle would stop being a pure
		// function of the queue.
		availBW -= clampNonNeg(j.Rate)
	}
	if availNodes < 0 {
		availNodes = 0
	}
	if availBW < 0 {
		availBW = 0
	}
	// Normalised availability vector.
	an := availNodes / float64(p.TotalNodes)
	ab := 0.0
	if p.ThroughputLimit > 0 {
		ab = availBW / p.ThroughputLimit
	}
	sc := tetrisScratchPool.Get().(*tetrisScratch)
	defer tetrisScratchPool.Put(sc)
	if cap(sc.scores) < len(window) {
		sc.scores = make([]scored, len(window))
	}
	scores := sc.scores[:len(window)]
	for i, j := range window {
		dn := float64(j.Nodes) / float64(p.TotalNodes)
		db := 0.0
		if p.ThroughputLimit > 0 {
			db = clampNonNeg(j.Rate) / p.ThroughputLimit
		}
		norm := math.Sqrt(dn*dn + db*db)
		score := dn*an + db*ab
		if norm > 0 {
			score /= norm
		}
		scores[i] = scored{pos: i, score: score}
	}
	ordered := append(sc.ordered[:0], window...)
	sc.ordered = ordered
	sort.SliceStable(scores, func(a, b int) bool {
		if scores[a].score != scores[b].score {
			return scores[a].score > scores[b].score
		}
		return scores[a].pos < scores[b].pos
	})
	for i, s := range scores {
		window[i] = ordered[s.pos]
	}
}

// scored is one window job's packing score, keyed by original position.
type scored struct {
	pos   int
	score float64
}

// tetrisScratch holds OrderWindow's per-call slices. The policy value is
// stateless and shared, so the scratch rides a sync.Pool; every element is
// overwritten before use, which keeps reuse invisible to the ordering.
type tetrisScratch struct {
	scores  []scored
	ordered []*Job
}

var tetrisScratchPool = sync.Pool{New: func() any { return new(tetrisScratch) }}
