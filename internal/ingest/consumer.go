package ingest

import (
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// ConsumerConfig tunes one session's incremental consumer.
type ConsumerConfig struct {
	// WindowDur is the aggregation window in session-relative trace
	// time; 0 means DefaultWindowDur.
	WindowDur trace.Dur
	// Threshold is the perceptibility threshold; 0 means the paper's
	// 100 ms.
	Threshold trace.Dur
}

// DefaultWindowDur is the aggregation window when none is configured:
// short enough that a live session becomes queryable within seconds
// of trace time, long enough that window state stays small.
const DefaultWindowDur = 10 * trace.Second

// flushEntry is one finalized (app, window) contribution, ready to
// journal and fold into the server tables.
type flushEntry struct {
	Window int64
	Agg    *Aggregate
}

// Consumer feeds one session's record stream to a lenient release-mode
// session builder whose episode hook is the streaming analyzer, folding
// each episode into per-window aggregates as it closes. A window is
// emitted as soon as it lies wholly below the builder's watermark: no
// episode closing later can start inside it. Not safe for concurrent
// use — one consumer lives on one session's receive goroutine.
type Consumer struct {
	b         *treebuild.Builder
	an        *stream.Analyzer
	diag      *treebuild.Diagnostics // set by Finish
	app       string
	windowDur trace.Dur
	threshold trace.Dur

	local        map[int64]*Aggregate
	flushedBelow int64 // windows < this have been emitted
	patternBytes int64 // retained canon bytes, for memory estimates
	treeless     int
	degraded     bool
}

// NewConsumer builds a consumer for one session stream. app is the
// aggregation key (normally the stream header's App).
func NewConsumer(app string, h lila.Header, cfg ConsumerConfig) *Consumer {
	if cfg.WindowDur <= 0 {
		cfg.WindowDur = DefaultWindowDur
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	c := &Consumer{
		an:        stream.NewAnalyzer(threshold),
		app:       app,
		windowDur: cfg.WindowDur,
		threshold: threshold,
		local:     make(map[int64]*Aggregate),
	}
	c.b = treebuild.NewBuilder(h, treebuild.Options{Lenient: true, Episode: c.an.Episode})
	c.an.Observe(c.onEpisode)
	return c
}

func (c *Consumer) onEpisode(_ *trace.Session, e *trace.Episode, info *engine.EpisodeInfo) {
	ec := contribution(e, info)
	if c.degraded {
		ec.treeless, ec.structured = true, false
		c.treeless++
	}
	w := int64(e.Start()) / int64(c.windowDur)
	agg := c.local[w]
	if agg == nil {
		agg = &Aggregate{}
		c.local[w] = agg
	}
	before := agg.Patterns[string(ec.canon)] == nil
	agg.addEpisode(&ec, c.threshold)
	if ec.structured && before {
		c.patternBytes += int64(len(ec.canon)) + 96
	}
}

// Add feeds one record to the lenient builder, which counts and skips
// records inconsistent with the session so far, exactly as the batch
// reference's lenient build does. A non-nil error is fatal for the
// session: the memory guard or a Validate-class episode.
func (c *Consumer) Add(rec *lila.Record) error { return c.b.Feed(rec) }

// Degrade enters stats-only mode: episodes closing from now on skip
// pattern classification and count as Treeless; aggregate statistics
// keep flowing.
func (c *Consumer) Degrade() { c.degraded = true }

// Degraded reports whether stats-only mode is active.
func (c *Consumer) Degraded() bool { return c.degraded }

// EstimateBytes approximates the consumer's retained memory: what the
// builder keeps (open episodes and the ticks they can reach), window
// aggregates, and pattern canon strings.
func (c *Consumer) EstimateBytes() int64 {
	const (
		base      = 16 << 10
		perWindow = 1 << 10
	)
	return base +
		c.b.EstimatedBytes() +
		int64(len(c.local))*perWindow +
		c.patternBytes
}

// CompletedWindows drains every window wholly below the builder's
// watermark (the current record time, or the earliest still-open
// episode's start if earlier). Returned aggregates are owned by the
// caller.
func (c *Consumer) CompletedWindows() []flushEntry {
	if len(c.local) == 0 {
		return nil
	}
	flushable := int64(c.b.Watermark()) / int64(c.windowDur)
	if flushable <= c.flushedBelow {
		return nil
	}
	var out []flushEntry
	for w, agg := range c.local {
		if w < flushable {
			out = append(out, flushEntry{Window: w, Agg: agg})
			delete(c.local, w)
		}
	}
	c.flushedBelow = flushable
	return out
}

// Finish closes the stream: the builder closes the session (a
// truncated stream ends at the last seen time stamp, and open episodes
// never finished contribute nothing — salvage-what-arrived), every
// remaining window is drained, and the session's app tally is taken
// from the closed session.
func (c *Consumer) Finish() (entries []flushEntry, app AppTally, st *stream.Stats) {
	s, diag, err := c.b.Finish()
	if err != nil {
		// Only an end record before the session start fails a lenient
		// release-mode finish; the windows folded so far still count.
		s, diag = &trace.Session{}, &treebuild.Diagnostics{}
	}
	c.diag = diag
	st = c.an.Stats(s, diag)
	for w, agg := range c.local {
		entries = append(entries, flushEntry{Window: w, Agg: agg})
		delete(c.local, w)
	}
	app = AppTally{Sessions: 1, Short: s.ShortCount, E2E: s.E2E()}
	return entries, app, st
}

// contribution normalizes one analyzed episode for Aggregate.addEpisode.
func contribution(e *trace.Episode, info *engine.EpisodeInfo) epContribution {
	return epContribution{
		dur:        e.Dur(),
		trigger:    info.Trigger,
		gc:         info.GC,
		native:     info.Native,
		ticks:      info.Ticks,
		structured: info.Structured,
		canon:      info.Print.Canon,
		hash:       info.Print.Hash,
	}
}

// App returns the aggregation key.
func (c *Consumer) App() string { return c.app }

// Treeless returns the episodes that lost their tree to degradation.
func (c *Consumer) Treeless() int { return c.treeless }

// FoldSessions is the batch reference: it folds fully-materialized
// sessions (from LoadTraceDir + treebuild) into the same Tables shape
// the streaming consumer produces, using the engine's fused
// per-episode walk and tick fold. The golden
// equivalence test pins streamed == FoldSessions over identical
// (salvaged) records; both sides share Aggregate.addEpisode, so any
// divergence is in per-episode math, not folding.
func FoldSessions(t *Tables, app string, sessions []*trace.Session, windowDur, threshold trace.Dur) {
	if windowDur <= 0 {
		windowDur = DefaultWindowDur
	}
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	ea := engine.NewEpisodeAnalyzer(engine.Options{
		Patterns: patterns.Options{Threshold: threshold},
	})
	for _, s := range sessions {
		for _, e := range s.Episodes {
			info := ea.Analyze(s, e)
			ec := contribution(e, &info)
			w := int64(e.Start()) / int64(windowDur)
			t.window(WindowKey{App: app, Window: w}).addEpisode(&ec, threshold)
		}
		t.app(app).merge(&AppTally{Sessions: 1, Short: s.ShortCount, E2E: s.E2E()})
	}
}
