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
// concurrency are all computable online in O(stack depth) memory.
//
// The analyzer states none of the rules itself: it drives the engine's
// trigger rule from call and return records and its tick fold from
// sample records, and folds each finished traced episode into the
// engine's population tallies — so streamed and batch figures agree
// exactly.
//
// Pattern mining and episode sketches inherently need the trees and
// are not offered here; use treebuild for those.
package stream

import (
	"fmt"
	"io"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
)

// Decode-throughput metrics, flushed once per analyzed trace (records
// are counted in a plain struct field on the hot path).
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

// EpisodeResult is one finished traced episode's contribution, as
// delivered to an Observe hook. Its tick tally is the engine's fold
// over exactly the ticks a batch scan of the finished episode visits
// (the half-open [Start, End) range), so summing EpisodeResults over
// any episode partition matches the engine's mergeable populations.
type EpisodeResult struct {
	Thread     trace.ThreadID
	Start, End trace.Time
	Trigger    analysis.Trigger

	// KindTime is the episode's exclusive per-kind time (GC bracket
	// override included).
	KindTime [6]trace.Dur

	// Ticks tallies the episode's sampling ticks: the episode thread's
	// samples by state and by app/library leaf, and runnable threads
	// over all threads.
	Ticks engine.TickTally

	// Root is the episode's interval tree when tree building is on
	// and the node budget held; nil otherwise. GC copy-nodes are not
	// materialized — pattern fingerprints exclude them anyway, so the
	// canonical form matches a treebuild-built episode's exactly.
	Root *trace.Interval
	// TreeDropped reports that tree building was on but this
	// episode's node budget was exceeded (degraded stats-only).
	TreeDropped bool
}

// Dur returns the episode's lag.
func (er *EpisodeResult) Dur() trace.Dur { return er.End.Sub(er.Start) }

// episodeState tracks one thread's active episode.
type episodeState struct {
	active   bool
	thread   trace.ThreadID
	start    trace.Time
	kinds    []trace.Kind // open intervals' kinds, the dispatch first
	lastTime trace.Time

	trigger  engine.TriggerRule
	kindTime [6]trace.Dur
	ticks    engine.TickTally

	// Incremental interval tree (BuildTrees).
	root        *trace.Interval
	stack       []*trace.Interval
	nodes       int
	treeDropped bool
}

// Analyzer consumes records incrementally; see Analyze for the
// one-call form.
type Analyzer struct {
	threshold trace.Dur
	filter    trace.Dur
	st        Stats

	threads map[trace.ThreadID]*episodeState

	// GC bracket state.
	inGC bool

	// The pending sampling tick, retained until it is complete so it
	// can be attributed to the episodes actually spanning its time.
	// Each sample keeps only its leaf frame (all the tick fold reads),
	// copied into leaves out of the reader's scratch.
	tick      trace.SampleTick
	tickValid bool
	leaves    []trace.Frame

	// Incremental-consumption extensions (Observe/BuildTrees).
	onEpisode func(*EpisodeResult)
	buildTree bool
	maxNodes  int
	treeNodes int
	lastTime  trace.Time
}

// NewAnalyzer builds a streaming analyzer for one trace. threshold 0
// means the paper's 100 ms.
func NewAnalyzer(h lila.Header, threshold trace.Dur) *Analyzer {
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	return &Analyzer{
		threshold: threshold,
		filter:    h.FilterThreshold,
		st:        Stats{App: h.App, SessionID: h.SessionID},
		threads:   make(map[trace.ThreadID]*episodeState),
	}
}

// Observe installs a hook called once per finished traced episode
// (sub-filter episodes are dropped, matching the batch builder). The
// passed EpisodeResult is only valid during the call.
func (a *Analyzer) Observe(fn func(*EpisodeResult)) { a.onEpisode = fn }

// BuildTrees makes the analyzer materialize each open episode's
// interval tree incrementally, delivered via EpisodeResult.Root. An
// episode exceeding maxNodes retained intervals (0 means 1<<16) has
// its tree dropped — stats keep flowing — and reports TreeDropped.
func (a *Analyzer) BuildTrees(maxNodes int) {
	if maxNodes <= 0 {
		maxNodes = 1 << 16
	}
	a.buildTree, a.maxNodes = true, maxNodes
}

// DropTrees stops tree building and frees every open episode's
// partial tree: the degraded stats-only mode entered under memory
// pressure. Aggregate statistics are unaffected.
func (a *Analyzer) DropTrees() {
	a.buildTree = false
	for _, es := range a.threads {
		if es.nodes > 0 || es.root != nil {
			a.treeNodes -= es.nodes
			es.root, es.stack, es.nodes = nil, nil, 0
			es.treeDropped = true
		}
	}
}

// TreeNodes returns the number of interval nodes currently retained
// by open episode trees — the basis of ingest memory estimates.
func (a *Analyzer) TreeNodes() int { return a.treeNodes }

// Now returns the time stamp of the last timed record consumed.
func (a *Analyzer) Now() trace.Time { return a.lastTime }

// MinOpenStart returns the earliest start time among episodes still
// open, and whether any episode is open. Everything before that point
// (or before Now when nothing is open) is final.
func (a *Analyzer) MinOpenStart() (trace.Time, bool) {
	var minStart trace.Time
	open := false
	for _, es := range a.threads {
		if es.active && (!open || es.start < minStart) {
			minStart, open = es.start, true
		}
	}
	return minStart, open
}

func (a *Analyzer) thread(id trace.ThreadID) *episodeState {
	es := a.threads[id]
	if es == nil {
		es = &episodeState{}
		a.threads[id] = es
	}
	return es
}

// account attributes elapsed time on a thread's episode to the
// current context (GC when the world is stopped, else the innermost
// open interval's kind).
func (es *episodeState) account(now trace.Time, inGC bool) {
	if !es.active {
		return
	}
	d := now.Sub(es.lastTime)
	es.lastTime = now
	if d <= 0 {
		return
	}
	if inGC {
		es.kindTime[trace.KindGC] += d
		return
	}
	es.kindTime[es.kinds[len(es.kinds)-1]] += d
}

// Add consumes one record.
func (a *Analyzer) Add(rec *lila.Record) error {
	a.st.Records++
	// A pending sampling tick is complete as soon as any record with a
	// different time stamp arrives (equal-time samples are contiguous
	// in a well-formed stream): flush it before this record can close
	// or open episodes, so the per-episode attribution sees exactly
	// the episodes whose [Start, End) range spans the tick.
	if rec.Type != lila.RecThread {
		if a.tickValid && rec.Time != a.tick.Time {
			a.flushTick()
		}
		a.lastTime = rec.Time
	}
	switch rec.Type {
	case lila.RecThread:
		// Thread identity is irrelevant to the aggregates.

	case lila.RecCall:
		es := a.thread(rec.Thread)
		if !es.active && rec.Kind == trace.KindDispatch {
			*es = episodeState{
				active: true, thread: rec.Thread,
				start: rec.Time, lastTime: rec.Time,
				trigger: engine.NewTriggerRule(analysis.TriggerOptions{}),
			}
		}
		if !es.active {
			return nil // orphan top-level non-dispatch interval
		}
		es.account(rec.Time, a.inGC)
		es.kinds = append(es.kinds, rec.Kind)
		es.trigger.Enter(rec.Kind)
		if a.buildTree && !es.treeDropped {
			iv := &trace.Interval{
				Kind: rec.Kind, Class: rec.Class, Method: rec.Method,
				Start: rec.Time, End: -1,
			}
			if es.root == nil {
				es.root = iv
			} else {
				parent := es.stack[len(es.stack)-1]
				parent.Children = append(parent.Children, iv)
			}
			es.stack = append(es.stack, iv)
			es.nodes++
			a.treeNodes++
			if es.nodes > a.maxNodes {
				a.treeNodes -= es.nodes
				es.root, es.stack, es.nodes = nil, nil, 0
				es.treeDropped = true
			}
		}

	case lila.RecReturn:
		es := a.thread(rec.Thread)
		if !es.active {
			return nil
		}
		if len(es.kinds) == 0 {
			return fmt.Errorf("stream: return without call at %v", rec.Time)
		}
		es.account(rec.Time, a.inGC)
		es.kinds = es.kinds[:len(es.kinds)-1]
		es.trigger.Exit()
		if len(es.stack) > 0 {
			iv := es.stack[len(es.stack)-1]
			iv.End = rec.Time
			es.stack = es.stack[:len(es.stack)-1]
		}
		if len(es.kinds) == 0 {
			a.finishEpisode(es, rec.Time)
		}

	case lila.RecGCStart:
		if a.inGC {
			return fmt.Errorf("stream: nested gcstart at %v", rec.Time)
		}
		for _, es := range a.threads {
			es.account(rec.Time, false)
		}
		a.inGC = true

	case lila.RecGCEnd:
		if !a.inGC {
			return fmt.Errorf("stream: gcend without gcstart at %v", rec.Time)
		}
		for _, es := range a.threads {
			es.account(rec.Time, true)
		}
		a.inGC = false

	case lila.RecSample:
		a.addSample(rec)

	case lila.RecEnd:
		a.flushTick()
		a.st.E2E = rec.Time.Sub(0)
		a.st.ShortCount += rec.Count

	default:
		return fmt.Errorf("stream: unknown record type %d", rec.Type)
	}
	return nil
}

func (a *Analyzer) addSample(rec *lila.Record) {
	// Equal-time samples form one tick; a new time completes the
	// pending one.
	if !a.tickValid || rec.Time != a.tick.Time {
		a.flushTick()
		a.tickValid = true
		a.tick.Time = rec.Time
	}
	ts := trace.ThreadSample{Thread: rec.Thread, State: rec.State}
	if len(rec.Stack) > 0 {
		n := len(a.leaves)
		a.leaves = append(a.leaves, rec.Stack[0])
		ts.Stack = a.leaves[n : n+1 : n+1]
	}
	a.tick.Threads = append(a.tick.Threads, ts)
}

// flushTick folds the pending sampling tick into every episode still
// spanning the tick time — exactly the ticks a batch scan of the
// finished episode would visit.
func (a *Analyzer) flushTick() {
	if !a.tickValid {
		return
	}
	for _, es := range a.threads {
		if es.active {
			es.ticks.AddTick(&a.tick, es.thread)
		}
	}
	a.tick.Threads = a.tick.Threads[:0]
	a.leaves = a.leaves[:0]
	a.tickValid = false
}

func (a *Analyzer) finishEpisode(es *episodeState, end trace.Time) {
	dur := end.Sub(es.start)
	es.active = false
	root, dropped := es.root, es.treeDropped
	a.treeNodes -= es.nodes
	es.root, es.stack, es.nodes, es.treeDropped = nil, nil, 0, false
	if dur < a.filter {
		a.st.ShortCount++
		return
	}
	a.st.Episodes++
	a.st.InEpisode += dur
	a.st.Durations.Add(dur.Ms())
	trigger := es.trigger.Trigger()
	gc, native := es.kindTime[trace.KindGC], es.kindTime[trace.KindNative]
	a.st.All.Add(trigger, dur, gc, native, &es.ticks)
	if dur >= a.threshold {
		a.st.Perceptible++
		a.st.Long.Add(trigger, dur, gc, native, &es.ticks)
	}
	if a.onEpisode != nil {
		a.onEpisode(&EpisodeResult{
			Thread: es.thread, Start: es.start, End: end,
			Trigger:  trigger,
			KindTime: es.kindTime,
			Ticks:    es.ticks,
			Root:     root, TreeDropped: dropped,
		})
	}
}

// Stats returns the accumulated statistics. Call after the end record.
func (a *Analyzer) Stats() *Stats {
	a.flushTick()
	st := a.st
	return &st
}

// Analyze consumes a whole trace from r and returns its statistics.
func Analyze(r lila.Reader, threshold trace.Dur) (*Stats, error) {
	start := time.Now()
	a := NewAnalyzer(r.Header(), threshold)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := a.Add(rec); err != nil {
			return nil, err
		}
	}
	st := a.Stats()
	st.Elapsed = time.Since(start)
	mRecords.Add(int64(st.Records))
	return st, nil
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

// AnalyzeLenient consumes r like Analyze but skips records the
// analyzer rejects (returns without calls, unbalanced GC brackets)
// instead of failing, returning the skip count alongside the
// statistics. Paired with a salvage-mode reader it is the degraded
// path for traces that cannot support a full session rebuild.
func AnalyzeLenient(r lila.Reader, threshold trace.Dur) (*Stats, int, error) {
	start := time.Now()
	a := NewAnalyzer(r.Header(), threshold)
	skipped := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, skipped, err
		}
		if err := a.Add(rec); err != nil {
			skipped++
		}
	}
	st := a.Stats()
	st.Elapsed = time.Since(start)
	mRecords.Add(int64(st.Records))
	return st, skipped, nil
}

// AnalyzeRecords is Analyze over an in-memory record slice.
func AnalyzeRecords(h lila.Header, recs []*lila.Record, threshold trace.Dur) (*Stats, error) {
	a := NewAnalyzer(h, threshold)
	for _, rec := range recs {
		if err := a.Add(rec); err != nil {
			return nil, err
		}
	}
	return a.Stats(), nil
}
