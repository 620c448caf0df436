package analysis_test

import (
	"math"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/trace"
)

func TestThresholdSweep(t *testing.T) {
	// Episodes at 50, 120, 180, 210, 500 ms.
	var eps []*trace.Episode
	var start trace.Time
	for _, d := range []float64{50, 120, 180, 210, 500} {
		eps = append(eps, ep(start, trace.Ms(d)))
		start = start.Add(trace.Ms(d) + trace.Second)
	}
	s := sessionWith(eps...)

	points := analysis.ThresholdSweep([]*trace.Session{s}, nil)
	if len(points) != len(analysis.LiteratureThresholds) {
		t.Fatalf("%d points, want %d", len(points), len(analysis.LiteratureThresholds))
	}
	wantCounts := []int{4, 3, 2, 1} // ≥100, ≥150, ≥195, ≥225
	for i, p := range points {
		if p.Threshold != analysis.LiteratureThresholds[i] {
			t.Errorf("point %d threshold = %v", i, p.Threshold)
		}
		if p.Episodes != wantCounts[i] {
			t.Errorf("threshold %v: %d episodes, want %d", p.Threshold, p.Episodes, wantCounts[i])
		}
		if math.Abs(p.Frac-float64(wantCounts[i])/5) > 1e-12 {
			t.Errorf("threshold %v: frac %v", p.Threshold, p.Frac)
		}
	}
	// Monotone non-increasing counts.
	for i := 1; i < len(points); i++ {
		if points[i].Episodes > points[i-1].Episodes {
			t.Error("sweep counts must not increase with the threshold")
		}
	}
	// PerMin consistency: episodes per minute of in-episode time.
	inEps := s.InEpisode().Seconds() / 60
	if got, want := points[0].PerMin, 4/inEps; math.Abs(got-want) > 1e-9 {
		t.Errorf("PerMin = %v, want %v", got, want)
	}
}

func TestThresholdSweepCustomAndEmpty(t *testing.T) {
	s := sessionWith(ep(0, trace.Ms(80)))
	points := analysis.ThresholdSweep([]*trace.Session{s}, []trace.Dur{trace.Ms(50), trace.Ms(100)})
	if len(points) != 2 || points[0].Episodes != 1 || points[1].Episodes != 0 {
		t.Errorf("custom sweep: %+v", points)
	}
	empty := analysis.ThresholdSweep(nil, nil)
	for _, p := range empty {
		if p.Episodes != 0 || p.Frac != 0 || p.PerMin != 0 {
			t.Errorf("empty sweep point: %+v", p)
		}
	}
}

func TestLiteratureThresholds(t *testing.T) {
	want := []trace.Dur{trace.Ms(100), trace.Ms(150), trace.Ms(195), trace.Ms(225)}
	if len(analysis.LiteratureThresholds) != len(want) {
		t.Fatalf("%d literature thresholds", len(analysis.LiteratureThresholds))
	}
	for i, th := range want {
		if analysis.LiteratureThresholds[i] != th {
			t.Errorf("threshold %d = %v, want %v", i, analysis.LiteratureThresholds[i], th)
		}
	}
}
