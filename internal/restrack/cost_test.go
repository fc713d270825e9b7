package restrack

import (
	"testing"
	"time"

	"wasched/internal/des"
)

// TestAddCostIndependentOfProfileSize is a cost-shape test for Add: a
// reservation and its release over an 8-breakpoint window must cost about
// the same in a profile of 10k breakpoints as in one of 1k, at most 3× as
// much. A whole-profile merge pass after every Add costs about 10× as much
// at 10k.
//
// The window's ends are existing breakpoints, so neither Add inserts one.
// An Add that does insert still shifts the tail of the breakpoint slice by
// one, an O(n)-byte memmove this test deliberately leaves out.
func TestAddCostIndependentOfProfileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	p1k, p10k := staircase(1_000), staircase(10_000)
	best1k, best10k := time.Duration(1<<63-1), time.Duration(1<<63-1)
	// Interleave the runs so a noisy neighbour slows both sizes alike; the
	// minimum over runs drops the noisy ones.
	for r := 0; r < 5; r++ {
		best1k = min(best1k, addReleasePairs(p1k))
		best10k = min(best10k, addReleasePairs(p10k))
	}
	t.Logf("per Add+release pair: 1k breakpoints %v, 10k breakpoints %v (%.2fx)",
		best1k, best10k, float64(best10k)/float64(best1k))
	if best10k > 3*best1k {
		t.Fatalf("Add+release costs %v at 10k breakpoints vs %v at 1k: work per Add grows with the profile", best10k, best1k)
	}
}

// staircase returns a compact profile of n breakpoints, one per second,
// stepping up by one node each.
func staircase(n int) *Profile {
	p := &Profile{pts: make([]point, n)}
	for k := range p.pts {
		p.pts[k] = point{t: des.Time(k) * des.Time(des.Second), v: float64(k + 1)}
	}
	return p
}

// addReleasePairs times 5,000 reservations of half a node over the 8
// segments in the middle of p, each released again right away, and returns
// the wall time per pair. The profile is unchanged afterwards.
func addReleasePairs(p *Profile) time.Duration {
	const pairs = 5_000
	m := len(p.pts) / 2
	lo, hi := p.pts[m].t, p.pts[m+8].t
	start := time.Now()
	for k := 0; k < pairs; k++ {
		p.Add(lo, hi, 0.5)
		p.Add(lo, hi, -0.5)
	}
	return time.Since(start) / pairs
}

// TestTrimBeforeNoOpCostIndependentOfProfileSize is a cost-shape test for
// TrimBefore in its common case: the periodic trim of a profile already
// trimmed to its head, which drops nothing. It must cost about the same at
// 10k breakpoints as at 1k, at most 3× as much; a trim that copies or
// re-compacts the whole profile costs about 10× as much at 10k.
func TestTrimBeforeNoOpCostIndependentOfProfileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	p1k, p10k := staircase(1_000), staircase(10_000)
	best1k, best10k := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < 5; r++ {
		best1k = min(best1k, noOpTrims(t, p1k))
		best10k = min(best10k, noOpTrims(t, p10k))
	}
	t.Logf("per no-op TrimBefore: 1k breakpoints %v, 10k breakpoints %v (%.2fx)",
		best1k, best10k, float64(best10k)/float64(best1k))
	if best10k > 3*best1k {
		t.Fatalf("a TrimBefore that drops nothing costs %v at 10k breakpoints vs %v at 1k: it does work per breakpoint", best10k, best1k)
	}
}

// noOpTrims times 100,000 trims of p at its first breakpoint, which drop
// nothing, and returns the wall time per trim.
func noOpTrims(t *testing.T, p *Profile) time.Duration {
	const trims = 100_000
	n, head := len(p.pts), p.pts[0].t
	start := time.Now()
	for k := 0; k < trims; k++ {
		p.TrimBefore(head)
	}
	elapsed := time.Since(start)
	if len(p.pts) != n {
		t.Fatalf("TrimBefore(%v) dropped breakpoints: %d left of %d", head, len(p.pts), n)
	}
	return elapsed / trims
}
