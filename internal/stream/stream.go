// Package stream computes LagAlyzer's headline statistics in a single
// pass over a LiLa record stream, without materializing the in-memory
// session.
//
// The paper notes that "LagAlyzer is an offline tool that needs to
// load the complete session trace into memory", which forced the
// authors to pre-filter episodes below 3 ms and to analyze one session
// at a time (Section V). The streaming analyzer lifts that limitation
// for the aggregate analyses: overview counts, episode-duration
// statistics, trigger classification, per-kind exclusive time (GC and
// native fractions), GUI-thread cause shares, and runnable-thread
// concurrency. Its memory is the open episodes plus the ticks they can
// still reach.
//
// The analyzer states none of the rules itself: it is the hook of a
// release-mode treebuild build (see treebuild.Options.Episode), which
// hands it each episode as it closes, and it folds the engine's
// per-episode analysis of that episode into the engine's population
// tallies — so streamed and batch figures agree by construction.
//
// Pattern mining and episode sketches need the whole session's trees
// and are not offered here; use a full treebuild build for those.
package stream

import (
	"io"
	"time"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// Decode-throughput metrics, flushed once per analyzed trace.
var (
	mRecords = obs.NewCounter("stream_records_total",
		"LiLa records consumed by the streaming analyzer")
	mBytes = obs.NewCounter("stream_bytes_total",
		"trace bytes decoded by the streaming analyzer")
)

// Stats is the result of one streaming pass.
type Stats struct {
	App       string
	SessionID int
	E2E       trace.Dur

	// Records counts every trace record consumed, and Bytes the
	// encoded input bytes behind them (Bytes is filled by AnalyzeStream,
	// which sees the raw reader; plain Analyze leaves it zero).
	// Elapsed is the wall clock the pass took. Together they give the
	// decode throughput (see RecordsPerSec and BytesPerSec).
	Records int
	Bytes   int64
	Elapsed time.Duration

	// ShortCount counts sub-filter episodes: the profiler's own count
	// plus any traced episodes below the filter threshold.
	ShortCount int
	// Episodes counts traced episodes; Perceptible those at or above
	// the threshold.
	Episodes    int
	Perceptible int
	// InEpisode is the total time spent handling traced episodes.
	InEpisode trace.Dur
	// Durations summarizes traced episode durations in milliseconds.
	Durations stats.Summary

	// All and Long are the engine's population tallies over every
	// traced episode and over the perceptible ones: triggers, GC and
	// native time, causes, location, and concurrency, each finished
	// episode folded in exactly as the batch engine folds it.
	All, Long engine.Population
}

// RecordsPerSec returns the decode throughput in records per second
// of wall clock (0 when Elapsed was not measured).
func (st *Stats) RecordsPerSec() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Records) / st.Elapsed.Seconds()
}

// BytesPerSec returns the decode throughput in bytes per second of
// wall clock (0 when Bytes or Elapsed was not measured).
func (st *Stats) BytesPerSec() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Bytes) / st.Elapsed.Seconds()
}

// Analyzer folds the episodes of one release-mode build: pass its
// Episode method as treebuild.Options.Episode, then read the result
// with Stats once the build finishes. Not safe for concurrent use.
type Analyzer struct {
	ea        *engine.EpisodeAnalyzer
	threshold trace.Dur
	pop       [2]engine.Population
	durs      stats.Summary
}

// NewAnalyzer builds a streaming analyzer. threshold 0 means the
// paper's 100 ms.
func NewAnalyzer(threshold trace.Dur) *Analyzer {
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	return &Analyzer{
		ea:        engine.NewEpisodeAnalyzer(),
		threshold: threshold,
	}
}

// Episode is the release-mode hook: it analyzes e once and folds it.
func (a *Analyzer) Episode(s *trace.Session, e *trace.Episode) {
	info := a.ea.Analyze(s, e)
	engine.Fold(&a.pop, e, &info, a.threshold)
	a.durs.Add(e.Dur().Ms())
}

// Stats returns the statistics of the finished release-mode build s,
// whose diagnostics are diag.
func (a *Analyzer) Stats(s *trace.Session, diag *treebuild.Diagnostics) *Stats {
	return &Stats{
		App: s.App, SessionID: s.ID, E2E: s.E2E(),
		Records:     diag.Records,
		ShortCount:  s.ShortCount,
		Episodes:    a.pop[0].Trigger.Total,
		Perceptible: a.pop[1].Trigger.Total,
		InEpisode:   a.pop[0].EpisodeTime,
		Durations:   a.durs,
		All:         a.pop[0], Long: a.pop[1],
	}
}

// analyze runs one strict release-mode build through build and
// returns its statistics.
func analyze(threshold trace.Dur, build func(treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error)) (*Stats, error) {
	start := time.Now()
	a := NewAnalyzer(threshold)
	s, diag, err := build(treebuild.Options{Episode: a.Episode})
	if err != nil {
		return nil, err
	}
	st := a.Stats(s, diag)
	st.Elapsed = time.Since(start)
	mRecords.Add(int64(st.Records))
	return st, nil
}

// Analyze consumes a whole trace from r and returns its statistics.
func Analyze(r lila.Reader, threshold trace.Dur) (*Stats, error) {
	return analyze(threshold, func(o treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error) {
		return treebuild.BuildOptions(r, o)
	})
}

// AnalyzeStream is Analyze over a raw encoded trace: it sniffs the
// encoding, counts the input bytes, and fills the throughput fields
// (Bytes, Records, Elapsed) alongside the usual statistics.
func AnalyzeStream(rd io.Reader, threshold trace.Dur) (*Stats, error) {
	cr := obs.NewCountingReader(rd, nil)
	lr, err := lila.NewReader(cr)
	if err != nil {
		return nil, err
	}
	st, err := Analyze(lr, threshold)
	if err != nil {
		return nil, err
	}
	st.Bytes = cr.Bytes()
	mBytes.Add(st.Bytes)
	return st, nil
}

// AnalyzeRecords is Analyze over an in-memory record slice.
func AnalyzeRecords(h lila.Header, recs []*lila.Record, threshold trace.Dur) (*Stats, error) {
	return analyze(threshold, func(o treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error) {
		return treebuild.BuildRecordsOptions(h, recs, o)
	})
}
