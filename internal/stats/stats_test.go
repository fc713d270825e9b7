package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStd(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean must be NaN")
	}
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if !almostEq(Quantile(xs, 0), 1) || !almostEq(Quantile(xs, 1), 5) {
		t.Fatal("extremes")
	}
	if !almostEq(Quantile(xs, 0.5), 3) {
		t.Fatal("median odd")
	}
	if !almostEq(Median([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("median even interpolates")
	}
	if !almostEq(Quantile([]float64{0, 10}, 0.25), 2.5) {
		t.Fatal("interpolation")
	}
	if !almostEq(Quantile([]float64{7}, 0.9), 7) {
		t.Fatal("singleton")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Fatal("invalid inputs must be NaN")
	}
	// Input must not be mutated.
	orig := []float64{9, 1, 5}
	Quantile(orig, 0.5)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(raw, qa) <= Quantile(raw, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoxStats(t *testing.T) {
	if b := BoxStats(nil); b.N != 0 {
		t.Fatal("empty box")
	}
	b := BoxStats([]float64{1, 2, 3, 4, 5, 6, 7, 8, 100})
	if b.N != 9 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("box: %v", b)
	}
	if !almostEq(b.Median, 5) {
		t.Fatalf("median: %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers: %v", b.Outliers)
	}
	if b.WhiskerHi != 8 || b.WhiskerLo != 1 {
		t.Fatalf("whiskers: %v %v", b.WhiskerLo, b.WhiskerHi)
	}
	if b.String() == "" {
		t.Fatal("String")
	}
}

func TestBoxStatsOrderInvariantProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		b := BoxStats(xs)
		if len(xs) == 0 {
			return b.N == 0
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskerLo >= b.Min && b.WhiskerHi <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSwarm(t *testing.T) {
	s := NewSwarm("adaptive", []float64{5, 1, 3})
	if s.Label != "adaptive" || !almostEq(s.Median, 3) {
		t.Fatalf("swarm: %+v", s)
	}
	if s.Values[0] != 1 || s.Values[2] != 5 {
		t.Fatal("values must be sorted")
	}
}

func TestRelChange(t *testing.T) {
	if !almostEq(RelChange(88, 100), -0.12) {
		t.Fatalf("RelChange: %v", RelChange(88, 100))
	}
	if !math.IsNaN(RelChange(1, 0)) {
		t.Fatal("zero base must be NaN")
	}
}

func TestBootstrap(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	lo, hi := Bootstrap(xs, 0.95, 500, 42)
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > 50 || hi < 50 || lo >= hi {
		t.Fatalf("bootstrap CI [%v, %v] must bracket the median 50", lo, hi)
	}
	// Deterministic for the same seed.
	lo2, hi2 := Bootstrap(xs, 0.95, 500, 42)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap must be deterministic per seed")
	}
	if l, h := Bootstrap(nil, 0.95, 100, 1); !math.IsNaN(l) || !math.IsNaN(h) {
		t.Fatal("empty bootstrap must be NaN")
	}
	if l, _ := Bootstrap(xs, 1.5, 100, 1); !math.IsNaN(l) {
		t.Fatal("invalid level must be NaN")
	}
}

func TestMannWhitneyU(t *testing.T) {
	// Clearly separated samples: tiny p.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{101, 102, 103, 104, 105, 106, 107, 108}
	u, p := MannWhitneyU(a, b)
	if u != 0 {
		t.Fatalf("U = %v, want 0 (a entirely below b)", u)
	}
	if p > 0.01 {
		t.Fatalf("separated samples: p = %v", p)
	}
	// Identical distributions: p near 1.
	_, p = MannWhitneyU(a, a)
	if p < 0.5 {
		t.Fatalf("identical samples: p = %v", p)
	}
	// Symmetry: swapping the samples keeps p.
	_, pa := MannWhitneyU(a, b)
	_, pb := MannWhitneyU(b, a)
	if math.Abs(pa-pb) > 1e-12 {
		t.Fatalf("p not symmetric: %v vs %v", pa, pb)
	}
	// Degenerate inputs.
	if u, p := MannWhitneyU(nil, a); !math.IsNaN(u) || !math.IsNaN(p) {
		t.Fatal("empty sample must be NaN")
	}
	if _, p := MannWhitneyU([]float64{1, 2}, []float64{3, 4}); p != 1 {
		t.Fatalf("underpowered samples must return p=1, got %v", p)
	}
	if _, p := MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Fatalf("all ties must return p=1, got %v", p)
	}
}

func TestMannWhitneyUAgainstReference(t *testing.T) {
	// Reference values computed with scipy.stats.mannwhitneyu
	// (method="asymptotic", use_continuity=True).
	a := []float64{19, 22, 16, 29, 24}
	b := []float64{20, 11, 17, 12}
	u, p := MannWhitneyU(a, b)
	if u != 17 {
		t.Fatalf("U = %v, want 17", u)
	}
	if math.Abs(p-0.11034) > 0.01 {
		t.Fatalf("p = %v, want ~0.110", p)
	}
}
