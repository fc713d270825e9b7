package restrack

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"wasched/internal/des"
)

const sec = des.Second

// bruteProfile is an O(n) reference implementation holding raw boxes.
type bruteProfile struct {
	boxes []struct {
		lo, hi des.Time
		v      float64
	}
}

func (b *bruteProfile) add(lo, hi des.Time, v float64) {
	if hi <= lo || v == 0 {
		return
	}
	b.boxes = append(b.boxes, struct {
		lo, hi des.Time
		v      float64
	}{lo, hi, v})
}

func (b *bruteProfile) valueAt(t des.Time) float64 {
	s := 0.0
	for _, box := range b.boxes {
		if box.lo <= t && t < box.hi {
			s += box.v
		}
	}
	return s
}

// candidateTimes are the only instants where a fit can begin: the query
// start and every box endpoint at or after it.
func (b *bruteProfile) earliestFit(from des.Time, dur des.Duration, need, limit float64) (des.Time, bool) {
	cands := []des.Time{from}
	for _, box := range b.boxes {
		if box.lo > from {
			cands = append(cands, box.lo)
		}
		if box.hi > from && box.hi != des.MaxTime {
			cands = append(cands, box.hi)
		}
	}
	best := des.MaxTime
	found := false
	for _, t := range cands {
		if b.maxOver(t, t.Add(dur))+need <= limit+1e-9*math.Max(limit, 1) {
			if t < best {
				best = t
				found = true
			}
		}
	}
	return best, found
}

func (b *bruteProfile) maxOver(lo, hi des.Time) float64 {
	// Max occurs at lo or at a box start within (lo, hi).
	max := b.valueAt(lo)
	for _, box := range b.boxes {
		if box.lo > lo && box.lo < hi {
			if v := b.valueAt(box.lo); v > max {
				max = v
			}
		}
	}
	return max
}

func TestProfileEmpty(t *testing.T) {
	p := NewProfile()
	if p.ValueAt(0) != 0 || p.ValueAt(des.Time(100*sec)) != 0 {
		t.Fatal("empty profile must be zero")
	}
	got, ok := p.EarliestFit(des.Time(5*sec), 10*sec, 3, 10)
	if !ok || got != des.Time(5*sec) {
		t.Fatalf("empty profile fit: got %v %v", got, ok)
	}
	if _, ok := p.EarliestFit(0, sec, 11, 10); ok {
		t.Fatal("need > limit must never fit")
	}
}

func TestProfileSingleBox(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.Time(20*sec), 5)
	cases := []struct {
		at   des.Time
		want float64
	}{
		{0, 0}, {des.Time(10*sec) - 1, 0}, {des.Time(10 * sec), 5},
		{des.Time(15 * sec), 5}, {des.Time(20*sec) - 1, 5}, {des.Time(20 * sec), 0},
	}
	for _, c := range cases {
		if got := p.ValueAt(c.at); got != c.want {
			t.Errorf("ValueAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestProfileAddAndCancelOut(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.Time(20*sec), 5)
	p.Add(des.Time(10*sec), des.Time(20*sec), -5)
	if p.Len() != 0 {
		t.Fatalf("cancelled reservations must compact away, have %d breakpoints: %v", p.Len(), p)
	}
}

func TestProfileOpenEndedReservation(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.MaxTime, 2)
	if got := p.ValueAt(des.Time(1e9 * float64(sec))); got != 2 {
		t.Fatalf("open-ended reservation: got %v", got)
	}
	if _, ok := p.EarliestFit(0, 5*sec, 9, 10); !ok {
		t.Fatal("fit of 9 under 10 with base 2 before 10s must succeed at t=0")
	}
	if _, ok := p.EarliestFit(des.Time(20*sec), 5*sec, 9, 10); ok {
		t.Fatal("fit of 9 under 10 with open-ended base 2 after 10s must fail")
	}
}

func TestProfileEarliestFitSkipsBusyWindow(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.Time(30*sec), 8)
	p.Add(des.Time(40*sec), des.Time(50*sec), 8)
	// Need 5 under limit 10: blocked during [10,30) and [40,50).
	got, ok := p.EarliestFit(0, 15*sec, 5, 10)
	if !ok || got != des.Time(50*sec) {
		// window of 15s starting at 0 hits [10,30); starting at 30 hits [40,50)
		t.Fatalf("got %v %v, want 50s", got, ok)
	}
	got, ok = p.EarliestFit(0, 10*sec, 5, 10)
	if !ok || got != 0 {
		t.Fatalf("10s window fits at 0: got %v %v", got, ok)
	}
	got, ok = p.EarliestFit(des.Time(5*sec), 10*sec, 5, 10)
	if !ok || got != des.Time(30*sec) {
		t.Fatalf("got %v %v, want 30s", got, ok)
	}
}

func TestProfileMaxOver(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.Time(20*sec), 3)
	p.Add(des.Time(15*sec), des.Time(25*sec), 4)
	if got := p.MaxOver(0, des.Time(100*sec)); got != 7 {
		t.Fatalf("MaxOver full = %v", got)
	}
	if got := p.MaxOver(des.Time(20*sec), des.Time(30*sec)); got != 4 {
		t.Fatalf("MaxOver tail = %v", got)
	}
	if got := p.MaxOver(0, des.Time(5*sec)); got != 0 {
		t.Fatalf("MaxOver head = %v", got)
	}
}

func TestProfileIntegralOver(t *testing.T) {
	p := NewProfile()
	p.Add(des.Time(10*sec), des.Time(20*sec), 3)
	if got := p.IntegralOver(0, des.Time(30*sec)); math.Abs(got-30) > 1e-9 {
		t.Fatalf("integral = %v, want 30", got)
	}
	if got := p.IntegralOver(des.Time(15*sec), des.Time(18*sec)); math.Abs(got-9) > 1e-9 {
		t.Fatalf("partial integral = %v, want 9", got)
	}
	if got := p.IntegralOver(des.Time(25*sec), des.Time(20*sec)); got != 0 {
		t.Fatalf("inverted interval integral = %v, want 0", got)
	}
}

// TestProfileMatchesBruteForce drives both implementations with random
// reservation sequences and checks every observable agrees.
func TestProfileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		p := NewProfile()
		var b bruteProfile
		n := 1 + rng.IntN(20)
		for i := 0; i < n; i++ {
			lo := des.Time(rng.Int64N(100)) * des.Time(sec)
			hi := lo + des.Time(1+rng.Int64N(50))*des.Time(sec)
			v := float64(1 + rng.IntN(8))
			p.Add(lo, hi, v)
			b.add(lo, hi, v)
		}
		for q := 0; q < 50; q++ {
			at := des.Time(rng.Int64N(200)) * des.Time(sec)
			if got, want := p.ValueAt(at), b.valueAt(at); math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d: ValueAt(%v) = %v, want %v\n%v", trial, at, got, want, p)
			}
		}
		for q := 0; q < 30; q++ {
			from := des.Time(rng.Int64N(120)) * des.Time(sec)
			dur := des.Duration(1+rng.Int64N(40)) * sec
			need := float64(rng.IntN(6))
			limit := float64(3 + rng.IntN(10))
			got, gok := p.EarliestFit(from, dur, need, limit)
			want, wok := b.earliestFit(from, dur, need, limit)
			if gok != wok || (gok && got != want) {
				t.Fatalf("trial %d: EarliestFit(%v,%v,%v,%v) = %v,%v want %v,%v\n%v",
					trial, from, dur, need, limit, got, gok, want, wok, p)
			}
		}
	}
}

// TestProfileEarliestFitPostcondition property-checks the contract: the
// returned time fits, and no earlier candidate fits.
func TestProfileEarliestFitPostcondition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		p := NewProfile()
		for i := 0; i < 10; i++ {
			lo := des.Time(rng.Int64N(60)) * des.Time(sec)
			p.Add(lo, lo+des.Time(1+rng.Int64N(30))*des.Time(sec), float64(1+rng.IntN(5)))
		}
		from := des.Time(rng.Int64N(40)) * des.Time(sec)
		dur := des.Duration(1+rng.Int64N(20)) * sec
		need, limit := float64(rng.IntN(4)), float64(2+rng.IntN(8))
		got, ok := p.EarliestFit(from, dur, need, limit)
		if !ok {
			return need > limit-p.ValueAt(des.MaxTime-1)
		}
		if got < from {
			return false
		}
		// The window must fit.
		if p.MaxOver(got, got.Add(dur))+need > limit+1e-6 {
			return false
		}
		// Minimality: probe a second earlier (if possible).
		if got > from {
			probe := got - 1
			if p.MaxOver(probe, probe.Add(dur))+need <= limit-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProfileAddReleaseRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	p := NewProfile()
	type box struct {
		lo, hi des.Time
		v      float64
	}
	var live []box
	for i := 0; i < 500; i++ {
		if len(live) > 0 && rng.IntN(2) == 0 {
			k := rng.IntN(len(live))
			bx := live[k]
			p.Add(bx.lo, bx.hi, -bx.v)
			live = append(live[:k], live[k+1:]...)
		} else {
			lo := des.Time(rng.Int64N(1000)) * des.Time(sec)
			bx := box{lo, lo + des.Time(1+rng.Int64N(100))*des.Time(sec), float64(1+rng.IntN(20)) * 1e9}
			p.Add(bx.lo, bx.hi, bx.v)
			live = append(live, bx)
		}
	}
	for _, bx := range live {
		p.Add(bx.lo, bx.hi, -bx.v)
	}
	if p.Len() != 0 {
		t.Fatalf("profile must be empty after releasing everything, %d breakpoints remain: %v", p.Len(), p)
	}
}

func TestProfileNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration must panic")
		}
	}()
	NewProfile().EarliestFit(0, -sec, 1, 10)
}

func TestNodeTracker(t *testing.T) {
	nt := NewNodeTracker(15)
	if nt.Total() != 15 {
		t.Fatal("total")
	}
	nt.Reserve(0, des.Time(100*sec), 10)
	if nt.UsedAt(des.Time(50*sec)) != 10 {
		t.Fatalf("used = %d", nt.UsedAt(des.Time(50*sec)))
	}
	got, ok := nt.EarliestFit(0, 10*sec, 5)
	if !ok || got != 0 {
		t.Fatalf("5 nodes fit now: %v %v", got, ok)
	}
	got, ok = nt.EarliestFit(0, 10*sec, 6)
	if !ok || got != des.Time(100*sec) {
		t.Fatalf("6 nodes fit at 100s: %v %v", got, ok)
	}
	nt.Release(des.Time(40*sec), des.Time(100*sec), 10)
	got, ok = nt.EarliestFit(0, 10*sec, 6)
	if !ok || got != des.Time(40*sec) {
		t.Fatalf("after release: %v %v", got, ok)
	}
}

func TestNodeTrackerPanicsOnBadTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero node count must panic")
		}
	}()
	NewNodeTracker(0)
}

func TestBandwidthTracker(t *testing.T) {
	const gib = 1 << 30
	bt := NewBandwidthTracker(20 * gib)
	bt.Reserve(0, des.Time(60*sec), 15*gib)
	got, ok := bt.EarliestFit(0, 30*sec, 5*gib)
	if !ok || got != 0 {
		t.Fatalf("5 GiB/s fits now: %v %v", got, ok)
	}
	got, ok = bt.EarliestFit(0, 30*sec, 6*gib)
	if !ok || got != des.Time(60*sec) {
		t.Fatalf("6 GiB/s fits at 60s: %v %v", got, ok)
	}
	// Over-limit reservation (measured throughput above limit) is allowed.
	bt.Reserve(0, des.Time(10*sec), 10*gib)
	if bt.UsedAt(0) != 25*gib {
		t.Fatalf("over-limit reserve: used = %v", bt.UsedAt(0))
	}
}

func TestBandwidthTrackerZeroLimit(t *testing.T) {
	bt := NewBandwidthTracker(0)
	got, ok := bt.EarliestFit(0, 10*sec, 0)
	if !ok || got != 0 {
		t.Fatalf("zero need under zero limit fits: %v %v", got, ok)
	}
	if _, ok := bt.EarliestFit(0, 10*sec, 1); ok {
		t.Fatal("positive need under zero limit must not fit")
	}
}

func TestBandwidthTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative reservation must panic")
		}
	}()
	NewBandwidthTracker(10).Reserve(0, des.Time(sec), -1)
}

func TestProfileClone(t *testing.T) {
	p := NewProfile()
	p.Add(0, des.Time(10*sec), 4)
	q := p.Clone()
	q.Add(0, des.Time(10*sec), 4)
	if p.ValueAt(0) != 4 || q.ValueAt(0) != 8 {
		t.Fatal("clone must be independent")
	}
	p.Reset()
	if p.Len() != 0 || q.ValueAt(0) != 8 {
		t.Fatal("reset must not affect clone")
	}
}
