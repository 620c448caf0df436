package main

import (
	"math"
	"sort"
	"strconv"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads computed here and by tools that
// check the benchmark agree. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// percentileLadder are the percentiles a summary may report beyond the
// median, from the most to the least conservative.
var percentileLadder = []float64{99.9, 99, 95, 90, 50}

// supportedPercentile returns the highest percentile of the ladder
// that has at least 10 samples beyond it, and false when even the
// median has fewer (fewer than 20 samples).
func supportedPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(0, min(rank-1, len(s)-1))]
}

// summary describes one metric's samples within a run.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Pct names the highest percentile with at least 10 samples beyond
	// it ("p90"); empty when the run has fewer than 20 samples.
	Pct      string  `json:"pct,omitempty"`
	PctValue float64 `json:"pct_value,omitempty"`
}

// summarize reduces samples to their median, quartiles, count, and
// supported percentile.
func summarize(xs []float64, unit string) summary {
	s := summary{Value: median(xs), Unit: unit, N: len(xs)}
	if len(xs) > 1 {
		s.Q1, s.Q3 = quartiles(xs)
	}
	if p, ok := supportedPercentile(len(xs)); ok && p > 50 {
		s.Pct = "p" + strconv.FormatFloat(p, 'f', -1, 64)
		s.PctValue = percentile(xs, p)
	}
	return s
}

// linearFit returns the least-squares slope and intercept of y on x
// and the coefficient of determination R².
func linearFit(x, y []float64) (slope, intercept, r2 float64) {
	n := float64(len(x))
	if len(x) < 2 || len(x) != len(y) {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	mean := sy / n
	var ssRes, ssTot float64
	for i := range x {
		d := y[i] - (slope*x[i] + intercept)
		ssRes += d * d
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}
