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
	sw := NewSweep(thresholds)
	for _, s := range sessions {
		for _, e := range s.Episodes {
			sw.Add(e.Dur())
		}
	}
	return sw.Points()
}

// Sweep is a threshold sweep folded one traced episode at a time: the
// episodes at or above each threshold, the episode total and the
// in-episode time. Every tally is integral, so sweeps over the same
// thresholds merge in any order.
type Sweep struct {
	Thresholds []trace.Dur
	Counts     []int
	Episodes   int
	InEpisode  trace.Dur
}

// NewSweep starts an empty sweep; thresholds nil means
// LiteratureThresholds.
func NewSweep(thresholds []trace.Dur) *Sweep {
	if thresholds == nil {
		thresholds = LiteratureThresholds
	}
	return &Sweep{Thresholds: thresholds, Counts: make([]int, len(thresholds))}
}

// Add folds one traced episode of duration d.
func (sw *Sweep) Add(d trace.Dur) {
	sw.Episodes++
	sw.InEpisode += d
	for i, th := range sw.Thresholds {
		if d >= th {
			sw.Counts[i]++
		}
	}
}

// Merge folds o, a sweep over the same thresholds, into sw.
func (sw *Sweep) Merge(o *Sweep) {
	sw.Episodes += o.Episodes
	sw.InEpisode += o.InEpisode
	for i, n := range o.Counts {
		sw.Counts[i] += n
	}
}

// Points evaluates the sweep at each threshold.
func (sw *Sweep) Points() []ThresholdPoint {
	points := make([]ThresholdPoint, 0, len(sw.Thresholds))
	for i, th := range sw.Thresholds {
		p := ThresholdPoint{Threshold: th, Episodes: sw.Counts[i]}
		if sw.Episodes > 0 {
			p.Frac = float64(p.Episodes) / float64(sw.Episodes)
		}
		if sw.InEpisode > 0 {
			p.PerMin = float64(p.Episodes) / (sw.InEpisode.Seconds() / 60)
		}
		points = append(points, p)
	}
	return points
}
