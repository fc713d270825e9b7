package main

import "sort"

// summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// spreads read the same here as in any script that checks them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return summary{d[0], d[0], d[0], 1}
	}
	var med float64
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / abs(s.Median)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
