// Package stats provides the small statistical toolkit the rest of the
// reproduction builds on: deterministic random distributions used by
// the session simulator, summary statistics used by the analyses, and
// cumulative-distribution helpers used for Figure 3.
//
// All randomness flows through *rand.Rand (math/rand/v2) instances
// seeded by the caller, so every simulation and every experiment is
// exactly reproducible.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the running count, min, mean, max, and total of a
// stream of observations (the streaming analyzer's episode
// durations).
type Summary struct {
	N     int
	Min   float64
	Max   float64
	Total float64
	mean  float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N++
	s.Total += x
	s.mean += (x - s.mean) / float64(s.N)
}

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// String renders the summary in a compact human-readable form.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g mean=%.3g max=%.3g total=%.3g", s.N, s.Min, s.Mean(), s.Max, s.Total)
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an
// empty slice and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of a cumulative distribution: after including
// the first X fraction of items, Y fraction of the mass is covered.
type CDFPoint struct{ X, Y float64 }

// CumulativeShare computes the Figure 3 curve: items are sorted by
// weight in descending order, and the k-th point reports the fraction
// of items (x) against the fraction of total weight they cover (y).
// The returned curve starts at (0,0) and ends at (1,1) (for non-zero
// total weight).
func CumulativeShare(weights []float64) []CDFPoint {
	n := len(weights)
	if n == 0 {
		return []CDFPoint{{0, 0}}
	}
	sorted := make([]float64, n)
	copy(sorted, weights)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var total float64
	for _, w := range sorted {
		total += w
	}
	pts := make([]CDFPoint, 0, n+1)
	pts = append(pts, CDFPoint{0, 0})
	var cum float64
	for i, w := range sorted {
		cum += w
		y := 1.0
		if total > 0 {
			y = cum / total
		}
		pts = append(pts, CDFPoint{X: float64(i+1) / float64(n), Y: y})
	}
	return pts
}

// ShareAt interpolates a cumulative curve at fraction x, answering
// questions like "what fraction of episodes do 20% of patterns cover?".
func ShareAt(curve []CDFPoint, x float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if x <= curve[0].X {
		return curve[0].Y
	}
	for i := 1; i < len(curve); i++ {
		if x <= curve[i].X {
			p, q := curve[i-1], curve[i]
			if q.X == p.X {
				return q.Y
			}
			frac := (x - p.X) / (q.X - p.X)
			return p.Y + frac*(q.Y-p.Y)
		}
	}
	return curve[len(curve)-1].Y
}
