package analysis

import "lagalyzer/internal/trace"

// The HCI literature the paper builds on does not agree on a single
// perceptibility threshold: Shneiderman's classic 100 ms, Dabrowski
// and Munson's 150 ms for keyboard and 195 ms for mouse input, and
// MacKenzie and Ware's 225 ms beyond which virtual-reality performance
// degrades sharply. LiteratureThresholds collects them for sensitivity
// analyses.
var LiteratureThresholds = []trace.Dur{
	100 * trace.Millisecond, // Shneiderman [10,11]
	150 * trace.Millisecond, // Dabrowski & Munson, keyboard [1]
	195 * trace.Millisecond, // Dabrowski & Munson, mouse [1]
	225 * trace.Millisecond, // MacKenzie & Ware [7]
}

// ThresholdPoint reports perceptible-episode statistics at one
// candidate threshold.
type ThresholdPoint struct {
	Threshold trace.Dur
	// Episodes is the number of traced episodes at or above the
	// threshold.
	Episodes int
	// Frac is Episodes over all traced episodes.
	Frac float64
	// PerMin is the number of such episodes per minute of in-episode
	// time (Table III's "Long/min" at this threshold).
	PerMin float64
}

// ThresholdSweep evaluates how the study's headline numbers move with
// the perceptibility threshold — a sensitivity analysis over the
// disagreeing HCI literature. Thresholds nil means
// LiteratureThresholds.
func ThresholdSweep(sessions []*trace.Session, thresholds []trace.Dur) []ThresholdPoint {
	var durs []trace.Dur
	for _, s := range sessions {
		for _, e := range s.Episodes {
			durs = append(durs, e.Dur())
		}
	}
	return SweepDurations(durs, thresholds)
}

// SweepDurations is ThresholdSweep over the durations of the traced
// episodes, whose sum is the in-episode time.
func SweepDurations(durs, thresholds []trace.Dur) []ThresholdPoint {
	if thresholds == nil {
		thresholds = LiteratureThresholds
	}
	var inEps trace.Dur
	for _, d := range durs {
		inEps += d
	}
	points := make([]ThresholdPoint, 0, len(thresholds))
	for _, th := range thresholds {
		n := 0
		for _, d := range durs {
			if d >= th {
				n++
			}
		}
		p := ThresholdPoint{Threshold: th, Episodes: n}
		if len(durs) > 0 {
			p.Frac = float64(n) / float64(len(durs))
		}
		if inEps > 0 {
			p.PerMin = float64(n) / (inEps.Seconds() / 60)
		}
		points = append(points, p)
	}
	return points
}
