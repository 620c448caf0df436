// Package lagalyzer is a from-scratch Go reproduction of LagAlyzer, the
// latency-profile analysis and visualization tool of Adamoli, Jovic,
// and Hauswirth (ISPASS 2010).
//
// LagAlyzer analyzes traces of interactive application sessions —
// nested trees of dispatch/listener/paint/native/async/GC intervals
// plus periodic call-stack samples of all threads — and characterizes
// *perceptible lag*: episodes of user-request handling that exceed the
// 100 ms perceptibility threshold.
//
// The package is a facade over the implementation:
//
//   - trace model and sessions (internal/trace),
//   - the LiLa trace format, text and block-indexed v2 (internal/lila),
//   - trace → session reconstruction (internal/treebuild),
//   - a deterministic simulator of interactive Java sessions standing
//     in for the paper's real applications (internal/sim) and the 14
//     study profiles (internal/apps),
//   - episode pattern classification (internal/patterns),
//   - the characterization analyses of Section IV, each rule defined
//     once in the fused engine (internal/engine) over the result types
//     of internal/analysis,
//   - the pattern browser (internal/browser),
//   - SVG/text visualization (internal/viz), and
//   - the full-study harness reproducing Table III and Figures 3-8
//     (internal/report).
//
// A minimal end-to-end use:
//
//	profile, _ := lagalyzer.ProfileByName("Jmol")
//	session, _ := lagalyzer.Simulate(lagalyzer.SimConfig{Profile: profile, Seed: 1})
//	set := lagalyzer.Classify([]*lagalyzer.Session{session})
//	for _, p := range set.Patterns[:3] {
//		fmt.Println(p.Count(), p.AvgLag(), p.Canon)
//	}
//
// "Developers who want to write their own analysis can implement it
// using the straightforward API provided by the core" — the same holds
// here: Session, Episode, Interval, and SampleTick expose the complete
// in-memory trace representation.
package lagalyzer

import (
	"io"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/browser"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
	"lagalyzer/internal/viz"
)

// Core trace model.
type (
	// Session is the complete trace of one interactive session.
	Session = trace.Session
	// Suite groups the sessions recorded for one application.
	Suite = trace.Suite
	// Episode is one user request handled on the GUI thread.
	Episode = trace.Episode
	// Interval is one node of an episode's interval tree.
	Interval = trace.Interval
	// Kind is the interval type (dispatch, listener, paint, native,
	// async, gc).
	Kind = trace.Kind
	// ThreadState is a sampled thread's scheduling state.
	ThreadState = trace.ThreadState
	// Frame is one call-stack frame of a sample.
	Frame = trace.Frame
	// SampleTick is one firing of the all-thread sampler.
	SampleTick = trace.SampleTick
	// Time is a point on the session timeline (ns since start).
	Time = trace.Time
	// Dur is a span of session time.
	Dur = trace.Dur
)

// Interval kinds (Table I of the paper).
const (
	KindDispatch = trace.KindDispatch
	KindListener = trace.KindListener
	KindPaint    = trace.KindPaint
	KindNative   = trace.KindNative
	KindAsync    = trace.KindAsync
	KindGC       = trace.KindGC
)

// Thread states (Figure 8 of the paper).
const (
	StateRunnable = trace.StateRunnable
	StateBlocked  = trace.StateBlocked
	StateWaiting  = trace.StateWaiting
	StateSleeping = trace.StateSleeping
)

// Thresholds used throughout the paper.
const (
	// PerceptibleThreshold is the 100 ms episode duration beyond
	// which users perceive lag.
	PerceptibleThreshold = trace.DefaultPerceptibleThreshold
	// FilterThreshold is the profiler's 3 ms trace filter.
	FilterThreshold = trace.DefaultFilterThreshold
)

// Ms converts fractional milliseconds into a Dur.
func Ms(ms float64) Dur { return trace.Ms(ms) }

// --- Trace I/O ---

// TraceFormat selects a trace encoding: text for debugging and live
// streams, v2 (block-indexed binary) for files.
type TraceFormat = lila.Format

// Trace encodings.
const (
	FormatText = lila.FormatText
	FormatV2   = lila.FormatV2
)

// ReadSession reads a LiLa trace (either encoding, sniffed) and
// reconstructs the session.
func ReadSession(r io.Reader) (*Session, error) {
	lr, err := lila.NewReader(r)
	if err != nil {
		return nil, err
	}
	s, _, err := treebuild.BuildOptions(lr, treebuild.Options{})
	return s, err
}

// WriteSession writes a session as a LiLa trace in the given format.
func WriteSession(w io.Writer, f TraceFormat, s *Session) error {
	return lila.WriteSession(w, f, s)
}

// --- Simulation (the study's workload substrate) ---

// SimConfig configures a simulated session; see internal/sim.Config.
type SimConfig = sim.Config

// Profile describes an application's interactive behaviour.
type Profile = sim.Profile

// Simulate runs one session of the configured application.
func Simulate(cfg SimConfig) (*Session, error) { return sim.Run(cfg) }

// Profiles returns the 14 study application profiles (Table II).
func Profiles() []*Profile { return apps.Catalog() }

// ProfileByName returns a study profile by application name.
func ProfileByName(name string) (*Profile, error) { return apps.ByName(name) }

// --- Pattern classification (Section II-C to II-E) ---

// PatternSet is the result of classifying sessions into patterns.
type PatternSet = patterns.Set

// Pattern is one equivalence class of structurally identical episodes.
type Pattern = patterns.Pattern

// Occurrence classifies how often a pattern was perceptible.
type Occurrence = patterns.Occurrence

// Occurrence classes (Figure 4).
const (
	OccNever     = patterns.OccNever
	OccOnce      = patterns.OccOnce
	OccSometimes = patterns.OccSometimes
	OccAlways    = patterns.OccAlways
)

// Classify groups the sessions' episodes into structural patterns by
// the paper's rule (interval kinds and class/method names; GC
// intervals and timing excluded), with perceptibility at 100 ms.
func Classify(sessions []*Session) *PatternSet { return engine.Classify(sessions) }

// Fingerprint returns an episode's canonical structural form.
func Fingerprint(e *Episode) string { return engine.Fingerprint(e) }

// --- Characterization analyses (Section IV) ---

// Trigger classifies what initiated an episode (Figure 5).
type Trigger = analysis.Trigger

// Trigger classes.
const (
	TriggerInput       = analysis.TriggerInput
	TriggerOutput      = analysis.TriggerOutput
	TriggerAsync       = analysis.TriggerAsync
	TriggerUnspecified = analysis.TriggerUnspecified
)

// TriggerOf determines an episode's trigger with the paper's rules
// (including the repaint-manager async→output reclassification).
func TriggerOf(e *Episode) Trigger { return engine.TriggerOf(e) }

// TriggerShares, LocationShares, and CauseShares are per-population
// results of the corresponding analyses.
type (
	TriggerShares  = analysis.TriggerShares
	LocationShares = analysis.LocationShares
	CauseShares    = analysis.CauseShares
	Overview       = analysis.Overview
)

// analyze runs the engine over the sessions as one suite; the
// per-figure functions below are views over its result.
func analyze(sessions []*Session, threshold Dur) *engine.Result {
	return engine.Analyze(&Suite{Sessions: sessions}, threshold)
}

// Triggers tallies episode triggers (Figure 5); onlyPerceptible
// restricts to episodes at or above the threshold.
func Triggers(sessions []*Session, threshold Dur, onlyPerceptible bool) TriggerShares {
	r := analyze(sessions, threshold)
	if onlyPerceptible {
		return r.TriggerLong
	}
	return r.TriggerAll
}

// Location computes where episode time went (Figure 6).
func Location(sessions []*Session, threshold Dur, onlyPerceptible bool) LocationShares {
	r := analyze(sessions, threshold)
	if onlyPerceptible {
		return r.LocationLong
	}
	return r.LocationAll
}

// Concurrency returns the average number of runnable threads during
// episodes (Figure 7) and the number of samples behind the average.
func Concurrency(sessions []*Session, threshold Dur, onlyPerceptible bool) (float64, int) {
	r := analyze(sessions, threshold)
	if onlyPerceptible {
		return r.ConcurrencyLong, r.TicksLong
	}
	return r.ConcurrencyAll, r.TicksAll
}

// Causes partitions GUI-thread time by scheduling state (Figure 8).
func Causes(sessions []*Session, threshold Dur, onlyPerceptible bool) CauseShares {
	r := analyze(sessions, threshold)
	if onlyPerceptible {
		return r.CausesLong
	}
	return r.CausesAll
}

// OverviewOf computes an application's Table III row.
func OverviewOf(suite *Suite, threshold Dur) Overview {
	return engine.Analyze(suite, threshold).Overview
}

// --- Visualization and browsing ---

// SketchSVG renders an episode sketch (Figures 1 and 2) as a
// self-contained SVG document with hover tooltips.
func SketchSVG(s *Session, e *Episode) string {
	return viz.Sketch(s, e, viz.SketchOptions{})
}

// SketchText renders an episode sketch for terminals.
func SketchText(s *Session, e *Episode) string { return viz.SketchText(s, e) }

// Browser is the pattern-browser model (Section II-E).
type Browser = browser.Browser

// NewBrowser builds a pattern browser over a classified set; it filters
// and shows occurrence at the set's threshold.
func NewBrowser(set *PatternSet) *Browser { return browser.New(set) }

// --- The full study (Section IV) ---

// StudyConfig configures a characterization run.
type StudyConfig = report.StudyConfig

// StudyResult is a full characterization run: Table III rows plus all
// figure data.
type StudyResult = report.StudyResult

// RunStudy simulates and analyzes the paper's full characterization
// study (14 applications × 4 sessions by default). Each episode is
// analyzed as its session's simulation closes it, so the results keep
// no session; Simulate returns one to browse.
func RunStudy(cfg StudyConfig) (*StudyResult, error) { return report.RunStudy(cfg) }
