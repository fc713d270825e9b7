package restrack

import (
	"math"
	"sort"
	"testing"

	"wasched/internal/des"
)

// FuzzProfile drives the piecewise-constant profile with arbitrary
// reservation sequences and cross-checks it against a brute-force reference:
// a plain list of (interval, delta) superpositions. Every decoded input
// exercises Add and its compaction, ValueAt, and one EarliestFit query
// whose answer is verified for feasibility AND minimality, and whose Band
// must give the same answer under every limit it holds for.
//
// Values are small integers, so reference comparisons are exact and the
// profile's 1e-9 relative tolerances can never flip an outcome.
func FuzzProfile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 5, 3, 20, 10, 253, 0, 120, 1, 4, 2, 8})
	f.Add([]byte{0, 0, 0, 255, 255, 255, 1, 1, 1, 1})
	f.Add([]byte{5, 40, 7, 5, 40, 249, 9, 90, 2, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			lo, hi des.Time
			delta  float64
		}
		p := NewProfile()
		var ops []op
		for len(data) > 4 && len(ops) < 48 {
			lo := des.Time(data[0]) * des.Time(des.Second)
			hi := lo.Add(des.Duration(data[1]%100) * des.Second)
			delta := float64(int8(data[2]))
			data = data[3:]
			p.Add(lo, hi, delta)
			if hi > lo && delta != 0 {
				ops = append(ops, op{lo, hi, delta})
			}
		}
		ref := func(at des.Time) float64 {
			v := 0.0
			for _, o := range ops {
				if o.lo <= at && at < o.hi {
					v += o.delta
				}
			}
			return v
		}

		// ValueAt must agree with the superposition at every half second,
		// hitting both breakpoints and segment interiors.
		for s := 0; s <= 720; s++ {
			at := des.Time(s) * des.Time(des.Second) / 2
			if got, want := p.ValueAt(at), ref(at); math.Abs(got-want) > 1e-6 {
				t.Fatalf("ValueAt(%v) = %g, reference %g (profile %v)", at, got, want, p)
			}
		}

		// One EarliestFit query per input, parameters from the tail bytes.
		var q [4]byte
		copy(q[:], data)
		from := des.Time(q[0]) * des.Time(des.Second)
		dur := des.Duration(q[1]%120) * des.Second
		need := float64(q[2] % 16)
		limit := float64(q[3] % 64)
		got, ok := p.EarliestFit(from, dur, need, limit)

		// A piecewise-constant profile changes value only at interval
		// boundaries, so the true earliest fit is `from` or some boundary
		// after it; past the last boundary the value is constant. That makes
		// this candidate set complete.
		cands := []des.Time{from}
		for _, o := range ops {
			if o.lo > from {
				cands = append(cands, o.lo)
			}
			if o.hi > from {
				cands = append(cands, o.hi)
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		fitsAt := func(c des.Time) bool {
			if ref(c)+need > limit {
				return false
			}
			end := c.Add(dur)
			for _, o := range ops {
				for _, b := range [2]des.Time{o.lo, o.hi} {
					if b > c && b < end && ref(b)+need > limit {
						return false
					}
				}
			}
			return true
		}
		want, wantOK := des.MaxTime, false
		for _, c := range cands {
			if fitsAt(c) {
				want, wantOK = c, true
				break
			}
		}
		if ok != wantOK || got != want {
			t.Fatalf("EarliestFit(%v, %v, need=%g, limit=%g) = (%v, %v); reference (%v, %v) on %v",
				from, dur, need, limit, got, ok, want, wantOK, p)
		}
		if ok {
			if got < from {
				t.Fatalf("EarliestFit returned %v before from=%v", got, from)
			}
			if max := p.maxOver(got, got.Add(dur)); !fits(max, need, limit) {
				t.Fatalf("EarliestFit start %v does not fit: max %g + need %g > limit %g", got, max, need, limit)
			}
		}

		// The same query with a band answers the same, and every other
		// limit the band holds for gives the same answer again.
		var b Band
		b.Reset()
		if bt, bok := p.EarliestFitBand(from, dur, need, limit, &b); bt != got || bok != ok {
			t.Fatalf("EarliestFitBand = (%v, %v), EarliestFit (%v, %v)", bt, bok, got, ok)
		}
		if !b.Holds(need, limit) {
			t.Fatalf("band %+v does not hold for its own limit %g", b, limit)
		}
		for l := 0.0; l < 64; l += 0.5 {
			if !b.Holds(need, l) {
				continue
			}
			if lt, lok := p.EarliestFit(from, dur, need, l); lt != got || lok != ok {
				t.Fatalf("band %+v holds for limit %g, but EarliestFit moves (%v, %v) → (%v, %v) on %v",
					b, l, got, ok, lt, lok, p)
			}
		}
	})
}

// FuzzTrackers layers the node and bandwidth trackers over fuzzed
// reserve/release sequences: UsedAt must stay consistent with the underlying
// profile and EarliestFit results must respect the trackers' limits.
func FuzzTrackers(f *testing.F) {
	f.Add([]byte{8, 0, 30, 2, 1, 10, 60, 3})
	f.Add([]byte{1, 200, 201, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		total := 1 + int(data[0]%32)
		nt := NewNodeTracker(total)
		bt := NewBandwidthTracker(float64(data[0] % 64))
		data = data[1:]
		for len(data) >= 4 {
			lo := des.Time(data[0]) * des.Time(des.Second)
			hi := lo.Add(des.Duration(1+data[1]%100) * des.Second)
			n := int(data[2] % 16)
			release := data[3]%2 == 1
			data = data[4:]
			if release {
				nt.Release(lo, hi, n)
			} else {
				nt.Reserve(lo, hi, n)
				bt.Reserve(lo, hi, float64(n))
			}
		}
		for s := 0; s <= 400; s++ {
			at := des.Time(s) * des.Time(des.Second)
			if got := nt.UsedAt(at); got != int(math.Round(nt.Profile().ValueAt(at))) {
				t.Fatalf("NodeTracker.UsedAt(%v) = %d, profile says %g", at, got, nt.Profile().ValueAt(at))
			}
		}
		if at, ok := nt.EarliestFit(0, 10*des.Second, 1); ok {
			if used := nt.UsedAt(at); used+1 > total {
				t.Fatalf("NodeTracker.EarliestFit start %v over capacity: %d+1 > %d", at, used, total)
			}
		}
		if at, ok := bt.EarliestFit(0, 10*des.Second, 1); ok {
			if used := bt.UsedAt(at); !fits(used, 1, bt.Limit()) {
				t.Fatalf("BandwidthTracker.EarliestFit start %v over limit: %g+1 > %g", at, used, bt.Limit())
			}
		}
	})
}

// FuzzProfileLocalCompact holds Add's local compaction to the whole-profile
// merge pass it replaced. Each decoded operation is applied to the profile
// and to a reference breakpoint slice that is edited by linear scan and then
// compacted by compactAll; the two slices must be identical bit for bit
// after every operation.
//
// Unlike FuzzProfile it uses bandwidth-scale floats and residues near the
// 1e-9 tolerance, where sameValue is not transitive, and TrimBefore, which
// can leave a head within tolerance of zero.
//
// Each operation takes four bytes: kind, then three parameters.
//
//	kind%5 == 0: node-style integer Add
//	kind%5 == 1: bandwidth-scale float Add
//	kind%5 == 2: release of an earlier reservation (negated delta)
//	kind%5 == 3: open-ended Add up to des.MaxTime
//	kind%5 == 4: TrimBefore
func FuzzProfileLocalCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 20, 3, 1, 15, 30, 2, 2, 0, 0, 0, 1, 5, 40, 7, 2, 1, 0, 0})
	// A 5e-10 residue after a node-scale step outlives the closing
	// breakpoint (it is within tolerance of zero there but not of 5), and
	// the trim at 15 s makes it the head.
	f.Add([]byte{0, 0, 10, 5, 1, 10, 10, 9, 4, 15, 0, 0})
	f.Add([]byte{3, 0, 0, 3, 1, 5, 50, 1, 1, 5, 50, 129, 4, 30, 0, 0, 1, 20, 60, 4, 2, 1, 0, 0})
	f.Add([]byte{1, 10, 30, 6, 1, 10, 30, 7, 2, 0, 0, 0, 2, 0, 0, 0, 1, 40, 20, 8, 4, 45, 0, 0, 1, 40, 20, 136})
	f.Fuzz(func(t *testing.T, data []byte) {
		type resv struct {
			lo, hi des.Time
			delta  float64
		}
		p := NewProfile()
		var ref []point
		var booked []resv
		for n := 0; len(data) >= 4 && n < 64; n++ {
			kind, b1, b2, b3 := data[0]%5, data[1], data[2], data[3]
			data = data[4:]
			lo := des.Time(b1) * des.Time(des.Second)
			hi := lo.Add(des.Duration(b2%100) * des.Second)
			var r resv
			switch kind {
			case 0:
				r = resv{lo, hi, float64(int8(b3) % 16)}
			case 1:
				r = resv{lo, hi, fuzzRate(b3)}
			case 2:
				if len(booked) == 0 {
					continue
				}
				k := int(b1) % len(booked)
				r = booked[k]
				r.delta = -r.delta
				booked = append(booked[:k], booked[k+1:]...)
			case 3:
				r = resv{lo, des.MaxTime, fuzzRate(b3)}
			case 4:
				p.TrimBefore(lo)
				ref = refTrim(ref, lo)
				checkSamePoints(t, p, ref, "TrimBefore(%v)", lo)
				continue
			}
			p.Add(r.lo, r.hi, r.delta)
			ref = refAdd(ref, r.lo, r.hi, r.delta)
			checkSamePoints(t, p, ref, "Add(%v, %v, %g)", r.lo, r.hi, r.delta)
			if kind != 2 {
				booked = append(booked, r)
			}
		}
	})
}

// fuzzRates are bandwidth-scale deltas in bytes/s, a few off by a relative
// 1e-9 or less, and residues just around the absolute tolerance near zero.
var fuzzRates = [...]float64{
	1e9, 2.5e9, 7.3e9, 1.7e10, 3e10,
	2.5e9 * (1 + 1e-9), 2.5e9 * (1 + 2e-9), 3e10 * (1 - 5e-10), 1e9 + 0.1,
	5e-10, 1e-9, 1.5e-9, 3e-9,
}

// fuzzRate decodes a signed bandwidth-scale delta from one byte.
func fuzzRate(b byte) float64 {
	r := fuzzRates[int(b&0x7f)%len(fuzzRates)]
	if b&0x80 != 0 {
		return -r
	}
	return r
}

// compactAll is the whole-profile merge pass, the reference for
// compactFrom: it drops every breakpoint whose value is the same (by
// sameValue) as the last one kept, starting from the implicit zero before
// the first breakpoint.
func compactAll(pts []point) []point {
	out := pts[:0]
	prev := 0.0
	for _, pt := range pts {
		if sameValue(pt.v, prev) {
			continue
		}
		out = append(out, pt)
		prev = pt.v
	}
	return out
}

// refAdd is Add on a plain breakpoint slice by linear scan, followed by
// the whole-profile merge pass.
func refAdd(pts []point, lo, hi des.Time, delta float64) []point {
	if hi <= lo || delta == 0 {
		return pts
	}
	pts = refBreak(pts, lo)
	if hi != des.MaxTime {
		pts = refBreak(pts, hi)
	}
	for k := range pts {
		if pts[k].t >= lo && pts[k].t < hi {
			pts[k].v += delta
		}
	}
	return compactAll(pts)
}

// refBreak inserts a breakpoint at t carrying the value in force there,
// unless one exists.
func refBreak(pts []point, t des.Time) []point {
	v := 0.0
	for k, pt := range pts {
		if pt.t == t {
			return pts
		}
		if pt.t > t {
			pts = append(pts[:k+1], pts[k:]...)
			pts[k] = point{t: t, v: v}
			return pts
		}
		v = pt.v
	}
	return append(pts, point{t: t, v: v})
}

// refTrim drops the breakpoints before the last one at or before t, then
// runs the whole-profile merge pass.
func refTrim(pts []point, t des.Time) []point {
	k := 0
	for k+1 < len(pts) && pts[k+1].t <= t {
		k++
	}
	return compactAll(append(pts[:0], pts[k:]...))
}

func checkSamePoints(t *testing.T, p *Profile, ref []point, format string, args ...any) {
	t.Helper()
	same := len(p.pts) == len(ref)
	for k := 0; same && k < len(ref); k++ {
		same = p.pts[k].t == ref[k].t && math.Float64bits(p.pts[k].v) == math.Float64bits(ref[k].v)
	}
	if !same {
		t.Fatalf("after "+format+": local compaction gives %v, whole-profile pass %v",
			append(args, p.pts, ref)...)
	}
}

// maxOver returns the maximum usage over [lo, hi), the oracle that checks
// an EarliestFit answer for feasibility. An empty interval yields the
// value at lo.
func (p *Profile) maxOver(lo, hi des.Time) float64 {
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
