// Package restrack implements reservation tracking for backfill scheduling.
//
// Its central type is Profile, a piecewise-constant function of simulation
// time representing the committed usage of one cluster-wide resource
// (nodes, Lustre bandwidth, or the "adjusted" bandwidth of the two-group
// approximation). The node tracker NT, the Lustre throughput tracker LT
// (paper Algorithm 2) and the adjusted tracker AT (paper Algorithm 5) are
// typed wrappers around Profile.
package restrack

import (
	"fmt"
	"math"
	"strings"

	"wasched/internal/des"
)

// point is a breakpoint: the profile holds value v from time t (inclusive)
// until the next breakpoint (exclusive).
type point struct {
	t des.Time
	v float64
}

// Profile is a piecewise-constant usage function over simulation time.
// It starts at zero everywhere; Add superimposes box functions. The zero
// value is ready to use.
//
// Profiles tolerate the floating-point drift inherent in adding and
// removing many bandwidth reservations: all capacity comparisons use a
// relative tolerance (see fits).
type Profile struct {
	pts []point // sorted by t and compact (see compactFrom); the value before pts[0].t is 0
}

// NewProfile returns an empty profile (zero usage everywhere).
func NewProfile() *Profile { return &Profile{} }

// Len returns the number of breakpoints, exposed for capacity diagnostics.
func (p *Profile) Len() int { return len(p.pts) }

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	q := &Profile{pts: make([]point, len(p.pts))}
	copy(q.pts, p.pts)
	return q
}

// Reset removes all reservations.
func (p *Profile) Reset() { p.pts = p.pts[:0] }

// CopyFrom replaces p's contents with src's, reusing p's backing array.
// It is the per-round snapshot step of incremental backfill sessions:
// copying a base profile into a reusable working profile is a single
// memmove, where rebuilding it from the running set is one Add per job.
//
//waschedlint:hotpath
func (p *Profile) CopyFrom(src *Profile) {
	p.pts = append(p.pts[:0], src.pts...)
}

// TrimBefore drops breakpoints strictly before the last one at or before
// t, bounding a long-lived profile's memory to its active horizon. Values
// at every time >= t are unchanged (surviving breakpoints are moved, not
// recomputed), except that a surviving head within tolerance of zero is
// merged into the zero prefix, as every profile keeps no breakpoint equal
// to its predecessor (see compactFrom). Queries before t afterwards see a
// zero prefix and are no longer meaningful.
//
//waschedlint:hotpath
func (p *Profile) TrimBefore(t des.Time) {
	i := p.locate(t)
	if i <= 0 {
		return
	}
	n := copy(p.pts, p.pts[i:])
	p.pts = p.pts[:n]
	// The new head is now measured against the implicit zero prefix, not
	// against the breakpoint it followed.
	p.compactFrom(0, 0)
}

// locate returns the index of the last breakpoint with t <= x, or -1 when x
// precedes all breakpoints.
func (p *Profile) locate(x des.Time) int {
	return p.locateIn(0, len(p.pts), x)
}

// locateIn is locate restricted to pts[lo:hi]: it returns the index of the
// last breakpoint in that range with t <= x, or lo-1 when there is none.
// Callers that already know a breakpoint at or before x pass its index + 1
// as lo.
func (p *Profile) locateIn(lo, hi int, x des.Time) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.pts[m].t > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}

// ValueAt returns the usage at time t.
func (p *Profile) ValueAt(t des.Time) float64 {
	return p.valueOf(p.locate(t))
}

// valueOf returns the value of the segment starting at breakpoint i, where
// i == -1 is the zero prefix.
func (p *Profile) valueOf(i int) float64 {
	if i < 0 {
		return 0
	}
	return p.pts[i].v
}

// ensureBreak inserts a breakpoint at t (if absent) whose value equals the
// profile's value at t, and returns its index. Breakpoints before index
// from must all lie before t.
func (p *Profile) ensureBreak(from int, t des.Time) int {
	i := p.locateIn(from, len(p.pts), t)
	if i >= 0 && p.pts[i].t == t {
		return i
	}
	v := p.valueOf(i)
	p.pts = append(p.pts, point{})
	copy(p.pts[i+2:], p.pts[i+1:])
	p.pts[i+1] = point{t: t, v: v}
	return i + 1
}

// Add superimposes delta over the half-open interval [lo, hi). Negative
// deltas release previously added reservations. Empty or inverted intervals
// are no-ops. hi may be des.MaxTime for an open-ended reservation.
//
//waschedlint:hotpath
func (p *Profile) Add(lo, hi des.Time, delta float64) {
	if hi <= lo || delta == 0 {
		return
	}
	i := p.ensureBreak(0, lo)
	j := len(p.pts) // no closing breakpoint: delta extends forever
	if hi != des.MaxTime {
		j = p.ensureBreak(i+1, hi)
	}
	for k := i; k < j; k++ {
		p.pts[k].v += delta
	}
	p.compactFrom(i, j)
}

// compactFrom merges breakpoints whose values became (numerically) identical
// to the last kept one, starting at index i and measuring pts[i] against
// pts[i-1] (or the zero prefix when i == 0). It stops right after the first
// breakpoint it keeps at index j or beyond.
//
// Every profile is compact between calls: no breakpoint has the same value
// (by sameValue) as its predecessor, and the first is not the same as zero.
// An Add edits only pts[i:j], so when the profile was compact before it,
// every comparison after the first breakpoint kept at or beyond j is one
// the profile already passed, and stopping there gives exactly the result
// of a merge pass over the whole profile.
func (p *Profile) compactFrom(i, j int) {
	prev := p.valueOf(i - 1)
	w, r := i, i
	for r < len(p.pts) {
		pt := p.pts[r]
		r++
		if sameValue(pt.v, prev) {
			continue
		}
		p.pts[w] = pt
		w++
		prev = pt.v
		if r > j {
			break
		}
	}
	if w < r {
		n := copy(p.pts[w:], p.pts[r:])
		p.pts = p.pts[:w+n]
	}
}

// sameValue reports whether two usage values are equal within the
// accumulated floating-point tolerance of reservation arithmetic. The
// branches compute math.Max(scale, 1) of two absolute values bit for bit,
// without the call math.Max costs on the hot path.
func sameValue(a, b float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-9*scale
}

// fits reports whether usage+need stays within limit, with tolerance.
func fits(usage, need, limit float64) bool {
	scale := math.Abs(limit)
	if scale < 1 {
		scale = 1
	}
	return usage+need <= limit+1e-9*scale
}

// MaxOver returns the maximum usage over [lo, hi). An empty interval
// yields the value at lo.
func (p *Profile) MaxOver(lo, hi des.Time) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	i := p.locate(lo)
	max := p.valueOf(i)
	for i++; i < len(p.pts) && p.pts[i].t < hi; i++ {
		if p.pts[i].v > max {
			max = p.pts[i].v
		}
	}
	return max
}

// IntegralOver returns the integral of usage over [lo, hi) in value-seconds
// (e.g. node·s or byte). hi must be finite.
func (p *Profile) IntegralOver(lo, hi des.Time) float64 {
	if hi <= lo {
		return 0
	}
	total := 0.0
	t := lo
	i := p.locate(lo)
	v := p.valueOf(i)
	for i++; i < len(p.pts) && p.pts[i].t < hi; i++ {
		total += v * p.pts[i].t.Sub(t).Seconds()
		t = p.pts[i].t
		v = p.pts[i].v
	}
	total += v * hi.Sub(t).Seconds()
	return total
}

// EarliestFit returns the earliest time t >= from such that for every
// instant u in [t, t+dur), usage(u) + need <= limit. It returns
// (des.MaxTime, false) when no such time exists, which can only happen when
// need exceeds limit net of the profile's value at infinity.
//
// This is the primitive behind EarliestStartTime in paper Algorithms 1, 4
// and 7.
//
//waschedlint:hotpath
func (p *Profile) EarliestFit(from des.Time, dur des.Duration, need, limit float64) (des.Time, bool) {
	if dur < 0 {
		panic("restrack: negative duration")
	}
	t := from
	k := p.locate(t) // breakpoint of the segment holding t; -1 is the zero prefix
	for {
		end := t.Add(dur)
		// Scan [t, end) for the first violating segment.
		viol := k
		if fits(p.valueOf(k), need, limit) {
			for viol = k + 1; viol < len(p.pts) && p.pts[viol].t < end; viol++ {
				if !fits(p.pts[viol].v, need, limit) {
					break
				}
			}
			if viol == len(p.pts) || p.pts[viol].t >= end {
				return t, true
			}
		}
		// Advance past the violating segment: the earliest possible fit
		// starts at the next breakpoint after it where usage drops enough.
		k = viol + 1
		for k < len(p.pts) && !fits(p.pts[k].v, need, limit) {
			k++
		}
		if k == len(p.pts) {
			// Usage never drops enough after viol; beyond the final
			// breakpoint the value is the last value, already checked.
			return des.MaxTime, false
		}
		t = p.pts[k].t
	}
}

// String renders the profile for diagnostics, e.g. "[0 @10s→3 @25s→0]".
func (p *Profile) String() string {
	var b strings.Builder
	b.WriteString("[0")
	for _, pt := range p.pts {
		fmt.Fprintf(&b, " @%.3fs→%.4g", pt.t.Seconds(), pt.v)
	}
	b.WriteString("]")
	return b.String()
}
