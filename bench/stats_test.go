package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the computation the benchmark's spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.675, 8.525},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5},
		{[]float64{0.9, 1.7, 1.1, 1.3, 1.0, 1.2, 1.05}, 1.0, 1.3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsSupportedPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs, "ms")
	if s.Pct != "p90" || s.PctValue != 90 || s.N != 100 || s.Value != 50.5 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s := summarize(xs[:19], "ms"); s.Pct != "" {
		t.Errorf("19 samples support no percentile beyond the median, got %q", s.Pct)
	}
}

func TestLinearFit(t *testing.T) {
	slope, intercept, r2 := linearFit([]float64{1, 2, 3, 4}, []float64{3, 5, 7, 9})
	if !near(slope, 2) || !near(intercept, 1) || !near(r2, 1) {
		t.Errorf("linearFit = %v, %v, %v; want 2, 1, 1", slope, intercept, r2)
	}
}
