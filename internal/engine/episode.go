package engine

import (
	"lagalyzer/internal/analysis"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// EpisodeInfo is the per-episode result of one fused walk, exposed
// for consumers outside the batch pipeline (the ingest batch
// reference uses it so streamed and batch window aggregates share the
// exact same per-episode math).
type EpisodeInfo struct {
	// Structured reports whether the episode participates in pattern
	// classification; Print is valid only when it does, and only
	// until the next Analyze call on the same EpisodeAnalyzer.
	Structured bool
	Print      patterns.Print

	Trigger    analysis.Trigger
	GC, Native trace.Dur
	Ticks      TickTally
	// Size is the whole tree's descendants times its depth, GC
	// intervals included: Figure 2 sketches the episode that maximizes
	// it.
	Size int
}

// EpisodeAnalyzer wraps the engine's fused per-episode traversal
// (canonical fingerprint, trigger class, exclusive GC/native time in
// a single walk, plus the tick fold). Not safe for concurrent use.
type EpisodeAnalyzer struct {
	w walker
}

// NewEpisodeAnalyzer builds an analyzer running the engine pipeline's
// walk.
func NewEpisodeAnalyzer() *EpisodeAnalyzer {
	return new(EpisodeAnalyzer)
}

// Analyze traverses one episode of session s exactly once and folds
// its sampling ticks. The returned Print.Canon aliases an internal
// buffer reused by the next call.
func (ea *EpisodeAnalyzer) Analyze(s *trace.Session, e *trace.Episode) EpisodeInfo {
	return ea.w.analyze(s, e)
}

// Fold adds an analyzed episode to pop[0], the population of every
// episode, and, when it is perceptible at threshold, to pop[1].
func Fold(pop *[2]Population, e *trace.Episode, info *EpisodeInfo, threshold trace.Dur) {
	pop[0].Add(info.Trigger, e.Dur(), info.GC, info.Native, &info.Ticks)
	if e.Perceptible(threshold) {
		pop[1].Add(info.Trigger, e.Dur(), info.GC, info.Native, &info.Ticks)
	}
}
