package main

import "testing"

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python: statistics.median(v) and
	// statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1.5, 9.25, 2, 7, 3.5, 3.5}, 1.875, 3.5, 7.5625},
	} {
		s := summarize(c.v)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.v) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.v, s, c.q1, c.median, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same runs", steady, steady, true, 0.1, "unchanged"},
		{"every pair faster", steady, scale(steady, 1.2), true, 0.1, "improved"},
		{"every pair slower", steady, scale(steady, 0.8), true, 0.1, "regressed"},
		{"slower within the bound", steady, scale(steady, 0.95), true, 0.1, "unchanged"},
		{"lower is better", steady, scale(steady, 1.2), false, 0.1, "regressed"},
		{"spread wider than the bound", []float64{50, 150, 60, 140, 100}, []float64{90, 95, 80, 85, 70}, true, 0.1, "unresolved"},
		{"exact metric moved", []float64{7, 7, 7}, []float64{7.5, 7.5, 7.5}, false, 0, "regressed"},
		{"exact metric held", []float64{7, 7, 7}, []float64{7, 7, 7}, false, 0, "unchanged"},
	} {
		if got := verdict(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
