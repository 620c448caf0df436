package ingest

import (
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
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
// session builder whose episode hook analyzes each episode once, as it
// closes, and folds it into its window's aggregate. A window is
// emitted as soon as it lies wholly below the builder's watermark: no
// episode closing later can start inside it. Not safe for concurrent
// use — one consumer lives on one session's receive goroutine.
type Consumer struct {
	b         *treebuild.Builder
	ea        *engine.EpisodeAnalyzer
	diag      *treebuild.Diagnostics // set by Finish
	app       string
	windowDur trace.Dur
	threshold trace.Dur

	local        map[int64]*Aggregate
	flushedBelow int64 // windows < this have been emitted
	patternBytes int64 // retained canon bytes, for memory estimates
	episodes     int
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
		ea:        engine.NewEpisodeAnalyzer(),
		app:       app,
		windowDur: cfg.WindowDur,
		threshold: threshold,
		local:     make(map[int64]*Aggregate),
	}
	c.b = treebuild.NewBuilder(h, treebuild.Options{Lenient: true, Episode: c.episode})
	return c
}

// episode is the builder's release-mode hook.
func (c *Consumer) episode(s *trace.Session, e *trace.Episode) {
	info := c.ea.Analyze(s, e)
	c.episodes++
	if c.degraded {
		c.treeless++
	}
	w := int64(e.Start()) / int64(c.windowDur)
	agg := c.local[w]
	if agg == nil {
		agg = &Aggregate{}
		c.local[w] = agg
	}
	if agg.add(e, &info, c.threshold, c.degraded) {
		c.patternBytes += int64(len(info.Print.Canon)) + 96
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
func (c *Consumer) Finish() (entries []flushEntry, app AppTally) {
	s, diag, err := c.b.Finish()
	if err != nil {
		// Only an end record before the session start fails a lenient
		// release-mode finish; the windows folded so far still count.
		s, diag = &trace.Session{}, &treebuild.Diagnostics{}
	}
	c.diag = diag
	for w, agg := range c.local {
		entries = append(entries, flushEntry{Window: w, Agg: agg})
		delete(c.local, w)
	}
	return entries, AppTally{Sessions: 1, Short: s.ShortCount, E2E: s.E2E()}
}

// App returns the aggregation key.
func (c *Consumer) App() string { return c.app }

// Episodes returns the episodes analyzed so far.
func (c *Consumer) Episodes() int { return c.episodes }

// Treeless returns the episodes that lost their tree to degradation.
func (c *Consumer) Treeless() int { return c.treeless }

// FoldSessions is the batch reference: it folds fully-materialized
// sessions (from LoadTraceDir + treebuild) into the same Tables shape
// the streaming consumer produces. The golden equivalence test pins
// streamed == FoldSessions over identical (salvaged) records; both
// sides run the same engine analysis into Aggregate.add, so any
// divergence is in what the builders close, not in folding.
func FoldSessions(t *Tables, app string, sessions []*trace.Session, windowDur, threshold trace.Dur) {
	if windowDur <= 0 {
		windowDur = DefaultWindowDur
	}
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	ea := engine.NewEpisodeAnalyzer()
	for _, s := range sessions {
		for _, e := range s.Episodes {
			info := ea.Analyze(s, e)
			t.window(WindowKey{App: app, Window: int64(e.Start()) / int64(windowDur)}).add(e, &info, threshold, false)
		}
		t.app(app).merge(&AppTally{Sessions: 1, Short: s.ShortCount, E2E: s.E2E()})
	}
}
