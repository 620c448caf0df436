package lagalyzer

// Facade exports for the reproduction's extension features: the
// session trace timeline (LiLa Viewer's visualization, which the
// paper's episode sketches extend), single-pass streaming analysis
// (lifting the Section V all-in-memory limitation), perceptibility
// threshold sensitivity (the intro's disagreeing HCI literature), and
// profiler-perturbation modeling (the paper's deferred future work).

import (
	"io"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/viz"
)

// TimelineSVG renders a whole-session trace timeline: every traced
// episode as a bar (log-duration height, trigger color) on the session
// time axis, with GC marks and the perceptibility threshold line.
func TimelineSVG(s *Session) string {
	return viz.Timeline(s)
}

// TimelineText renders the terminal form of the session timeline.
func TimelineText(s *Session, columns int) string {
	return viz.TimelineText(s, columns)
}

// StreamStats is the result of a single-pass streaming analysis; see
// AnalyzeStream.
type StreamStats = stream.Stats

// AnalyzeStream computes overview statistics, triggers, GC/native
// fractions, cause shares, and concurrency in one pass over a trace
// without materializing the session: each episode is analyzed as it
// closes and then dropped, so memory holds only the open episodes and
// the ticks they can still reach. threshold 0 means the paper's 100 ms.
func AnalyzeStream(r io.Reader, threshold Dur) (*StreamStats, error) {
	return stream.AnalyzeStream(r, threshold)
}

// ThresholdPoint reports perceptible-episode statistics at one
// candidate perceptibility threshold.
type ThresholdPoint = analysis.ThresholdPoint

// LiteratureThresholds are the perceptibility thresholds of the HCI
// literature the paper cites: 100 ms (Shneiderman), 150 ms and 195 ms
// (Dabrowski & Munson, keyboard and mouse), 225 ms (MacKenzie & Ware).
func LiteratureThresholds() []Dur {
	out := make([]Dur, len(analysis.LiteratureThresholds))
	copy(out, analysis.LiteratureThresholds)
	return out
}

// ThresholdSweep evaluates perceptible-episode counts across candidate
// thresholds; nil means LiteratureThresholds.
func ThresholdSweep(sessions []*Session, thresholds []Dur) []ThresholdPoint {
	return analysis.ThresholdSweep(sessions, thresholds)
}

// Perturbation models the profiler's own measurement overhead
// (instrumentation slowdown, profiler allocations); attach one to a
// SimConfig to study measurement perturbation.
type Perturbation = sim.Perturbation
