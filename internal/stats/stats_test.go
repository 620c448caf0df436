package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(x)
	}
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 1/9", s.Min, s.Max)
	}
	if s.Total != 31 {
		t.Errorf("Total = %v, want 31", s.Total)
	}
	if got, want := s.Mean(), 31.0/8; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Errorf("empty summary: Mean=%v, want 0", s.Mean())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	// Input must not be reordered.
	if xs[0] != 10 {
		t.Error("Percentile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 9}); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestCumulativeShareParetoShape(t *testing.T) {
	// 20 items where the first 4 hold 80 of 100 units: a designed
	// 80/20 distribution should yield ShareAt(0.2) == 0.8.
	weights := make([]float64, 20)
	for i := 0; i < 4; i++ {
		weights[i] = 20
	}
	for i := 4; i < 20; i++ {
		weights[i] = 1.25
	}
	curve := CumulativeShare(weights)
	if got := ShareAt(curve, 0.2); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("ShareAt(0.2) = %v, want 0.8", got)
	}
	first, last := curve[0], curve[len(curve)-1]
	if first.X != 0 || first.Y != 0 {
		t.Errorf("curve starts at %+v, want (0,0)", first)
	}
	if last.X != 1 || math.Abs(last.Y-1) > 1e-12 {
		t.Errorf("curve ends at %+v, want (1,1)", last)
	}
}

func TestCumulativeShareSortsDescending(t *testing.T) {
	// Order of input must not matter.
	a := CumulativeShare([]float64{1, 10, 5})
	b := CumulativeShare([]float64{10, 5, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("curve depends on input order: %v vs %v", a, b)
		}
	}
	// Curve must be concave for descending weights: marginal gains
	// shrink left to right.
	prevGain := math.Inf(1)
	for i := 1; i < len(a); i++ {
		gain := a[i].Y - a[i-1].Y
		if gain > prevGain+1e-12 {
			t.Fatalf("curve not concave at %d", i)
		}
		prevGain = gain
	}
}

func TestCumulativeShareEmpty(t *testing.T) {
	curve := CumulativeShare(nil)
	if len(curve) != 1 || curve[0] != (CDFPoint{0, 0}) {
		t.Errorf("empty curve = %v", curve)
	}
	if ShareAt(nil, 0.5) != 0 {
		t.Error("ShareAt on empty curve should be 0")
	}
}

func TestShareAtClampsToEnds(t *testing.T) {
	curve := CumulativeShare([]float64{1, 1})
	if got := ShareAt(curve, -1); got != 0 {
		t.Errorf("ShareAt(-1) = %v, want 0", got)
	}
	if got := ShareAt(curve, 2); got != 1 {
		t.Errorf("ShareAt(2) = %v, want 1", got)
	}
}

func TestCumulativeShareProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var ws []float64
		for _, w := range raw {
			if w > 0 && w < 1e9 && !math.IsNaN(w) {
				ws = append(ws, w)
			}
		}
		curve := CumulativeShare(ws)
		// Monotone non-decreasing in both coordinates.
		for i := 1; i < len(curve); i++ {
			if curve[i].X < curve[i-1].X || curve[i].Y < curve[i-1].Y-1e-12 {
				return false
			}
		}
		// y ≥ x everywhere (descending sort means early items carry
		// at least their proportional share).
		for _, p := range curve {
			if p.Y < p.X-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
