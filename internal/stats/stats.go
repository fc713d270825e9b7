// Package stats provides the small set of robust statistics the experiment
// harness reports: medians and quantiles (the paper uses medians because
// parallel-file-system runtimes are skewed, §VII-A), box-plot summaries for
// Fig. 4, and swarm summaries for Fig. 6.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics (R type 7). NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[hi]*f
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Box is a five-number box-plot summary with Tukey whiskers.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	// WhiskerLo and WhiskerHi are the most extreme values within 1.5 IQR
	// of the quartiles.
	WhiskerLo, WhiskerHi float64
	// Outliers are the values beyond the whiskers.
	Outliers []float64
	N        int
}

// BoxStats computes a box-plot summary. Empty input yields a zero Box with
// N == 0.
func BoxStats(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	b := Box{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, x := range s {
		if x >= loFence && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hiFence && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b
}

// String formats the box like "n=9 [1.0 | 2.0 3.0 4.0 | 5.0]".
func (b Box) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Swarm is the summary of repeated measurements of one configuration, as
// plotted in the paper's Fig. 6.
type Swarm struct {
	Label  string
	Values []float64 // sorted
	Median float64
}

// NewSwarm builds a swarm summary (values are copied and sorted).
func NewSwarm(label string, values []float64) Swarm {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return Swarm{Label: label, Values: s, Median: Median(s)}
}

// RelChange returns (v-base)/base — the improvement percentages quoted in
// the paper are -RelChange(median, baseMedian). NaN when base is zero.
func RelChange(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (v - base) / base
}

// Bootstrap returns a percentile bootstrap confidence interval for the
// median at the given confidence level (e.g. 0.95), using a deterministic
// linear-congruential resampler so reports are reproducible.
func Bootstrap(xs []float64, level float64, rounds int, seed uint64) (lo, hi float64) {
	if len(xs) == 0 || rounds <= 0 || level <= 0 || level >= 1 {
		return math.NaN(), math.NaN()
	}
	meds := make([]float64, rounds)
	state := seed | 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	sample := make([]float64, len(xs))
	for r := 0; r < rounds; r++ {
		for i := range sample {
			sample[i] = xs[next()%uint64(len(xs))]
		}
		meds[r] = Median(sample)
	}
	alpha := (1 - level) / 2
	return Quantile(meds, alpha), Quantile(meds, 1-alpha)
}

// MannWhitneyU performs the two-sided Mann-Whitney U test (Wilcoxon
// rank-sum) with the normal approximation and tie correction, returning
// the U statistic of the first sample and the two-sided p-value. It is the
// appropriate significance test for the skewed makespan distributions of
// Fig. 6 (medians, not means). Samples of fewer than 3 each return p = 1
// (no power).
func MannWhitneyU(a, b []float64) (u float64, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks with tie groups.
	ranks := make([]float64, len(all))
	tieCorrection := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.first {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u = r1 - fn1*(fn1+1)/2
	if n1 < 3 || n2 < 3 {
		return u, 1
	}
	mean := fn1 * fn2 / 2
	nTot := fn1 + fn2
	variance := fn1 * fn2 / 12 * (nTot + 1 - tieCorrection/(nTot*(nTot-1)))
	if variance <= 0 {
		return u, 1 // all values tied
	}
	// Continuity-corrected z.
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	p = 2 * (1 - normalCDF(z))
	if p > 1 {
		p = 1
	}
	return u, p
}

// normalCDF is the standard normal CDF via erfc.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
