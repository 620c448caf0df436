package ingest

import (
	"errors"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
)

// ConsumerConfig tunes one session's incremental consumer.
type ConsumerConfig struct {
	// WindowDur is the aggregation window in session-relative trace
	// time; 0 means DefaultWindowDur.
	WindowDur trace.Dur
	// Threshold is the perceptibility threshold; 0 means the paper's
	// 100 ms.
	Threshold trace.Dur
	// MaxEpisodeNodes bounds one episode's retained interval tree;
	// an episode exceeding it degrades to stats-only. 0 means 1<<16.
	MaxEpisodeNodes int
	// StatsOnly disables tree building (and with it pattern tallies)
	// from the start.
	StatsOnly bool
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

// Consumer feeds one session's record stream through the streaming
// analyzer and an incremental episode-tree builder, folding each
// finished episode into per-window aggregates. A window is emitted as
// soon as it can no longer change: every later record is past it and
// no open episode started inside it. Not safe for concurrent use —
// one consumer lives on one session's receive goroutine.
type Consumer struct {
	an        *stream.Analyzer
	app       string
	windowDur trace.Dur
	threshold trace.Dur
	fp        *patterns.Fingerprinter

	local        map[int64]*Aggregate
	flushedBelow int64 // windows < this have been emitted
	patternBytes int64 // retained canon bytes, for memory estimates
	treeless     int
	degraded     bool

	// Lenient-skip guards, mirroring treebuild's: the batch reference
	// drops out-of-order and after-end records, so the streaming side
	// must reject the same ones for golden equivalence to hold.
	last  trace.Time
	ended bool
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
		an:        stream.NewAnalyzer(h, threshold),
		app:       app,
		windowDur: cfg.WindowDur,
		threshold: threshold,
		fp:        patterns.NewFingerprinter(patterns.Options{Threshold: threshold}),
		local:     make(map[int64]*Aggregate),
	}
	if cfg.StatsOnly {
		c.degraded = true
	} else {
		c.an.BuildTrees(cfg.MaxEpisodeNodes)
	}
	c.an.Observe(c.onEpisode)
	return c
}

func (c *Consumer) onEpisode(er *stream.EpisodeResult) {
	ec := epContribution{
		dur:      er.Dur(),
		trigger:  er.Trigger,
		gc:       er.KindTime[trace.KindGC],
		native:   er.KindTime[trace.KindNative],
		ticks:    er.Ticks,
		treeless: er.Root == nil,
	}
	if er.Root != nil {
		ep := trace.Episode{Thread: er.Thread, Root: er.Root}
		pr, ok := c.fp.Fingerprint(&ep)
		ec.structured = ok
		ec.canon, ec.hash = pr.Canon, pr.Hash
		ec.treeless = false
	} else {
		c.treeless++
	}
	w := int64(er.Start) / int64(c.windowDur)
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

// Add consumes one record leniently-ready: a non-nil error means the
// record was rejected (out of time order, after the end record, or
// inconsistent — return without call, unbalanced GC); the caller
// counts it as skipped. The rejection rules mirror treebuild's
// lenient builder so that a salvaged stream produces the same record
// sequence on both the streamed and the batch side.
func (c *Consumer) Add(rec *lila.Record) error {
	if c.ended {
		return errAfterEnd
	}
	if rec.Type != lila.RecThread {
		if rec.Time < c.last {
			return errOutOfOrder
		}
		c.last = rec.Time
	}
	if err := c.an.Add(rec); err != nil {
		return err
	}
	if rec.Type == lila.RecEnd {
		c.ended = true
	}
	return nil
}

var (
	errOutOfOrder = errors.New("ingest: record out of time order")
	errAfterEnd   = errors.New("ingest: record after end record")
)

// Degrade enters stats-only mode: open and future episode trees are
// dropped, aggregate statistics keep flowing.
func (c *Consumer) Degrade() {
	if !c.degraded {
		c.degraded = true
		c.an.DropTrees()
	}
}

// Degraded reports whether stats-only mode is active.
func (c *Consumer) Degraded() bool { return c.degraded }

// EstimateBytes approximates the consumer's retained memory: open
// episode trees, window aggregates, and pattern canon strings.
func (c *Consumer) EstimateBytes() int64 {
	const (
		base      = 16 << 10
		perNode   = 160
		perWindow = 1 << 10
	)
	return base +
		int64(c.an.TreeNodes())*perNode +
		int64(len(c.local))*perWindow +
		c.patternBytes
}

// CompletedWindows drains every window that can no longer change:
// strictly before the current record time's window and before the
// window of the earliest still-open episode. Returned aggregates are
// owned by the caller.
func (c *Consumer) CompletedWindows() []flushEntry {
	if len(c.local) == 0 {
		return nil
	}
	flushable := int64(c.an.Now()) / int64(c.windowDur)
	if minStart, open := c.an.MinOpenStart(); open {
		if w := int64(minStart) / int64(c.windowDur); w < flushable {
			flushable = w
		}
	}
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

// Finish closes the stream: the pending tick is flushed, every
// remaining window is drained (open episodes never finished, so they
// contribute nothing — salvage-what-arrived), and the session's app
// tally is computed from the analyzer's final statistics.
func (c *Consumer) Finish() (entries []flushEntry, app AppTally, st *stream.Stats) {
	st = c.an.Stats()
	if !c.ended {
		// Truncated stream — no end record arrived. Close the session
		// at the last seen time stamp, exactly as treebuild's lenient
		// builder synthesizes the end for the batch pipeline.
		if now := c.an.Now(); trace.Dur(now) > st.E2E {
			st.E2E = trace.Dur(now)
		}
	}
	for w, agg := range c.local {
		entries = append(entries, flushEntry{Window: w, Agg: agg})
		delete(c.local, w)
	}
	app = AppTally{Sessions: 1, Short: st.ShortCount, E2E: st.E2E}
	return entries, app, st
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
			ec := epContribution{
				dur:        e.Dur(),
				trigger:    info.Trigger,
				gc:         info.GC,
				native:     info.Native,
				ticks:      info.Ticks,
				structured: info.Structured,
				canon:      info.Print.Canon,
				hash:       info.Print.Hash,
			}
			w := int64(e.Start()) / int64(windowDur)
			t.window(WindowKey{App: app, Window: w}).addEpisode(&ec, threshold)
		}
		t.app(app).merge(&AppTally{Sessions: 1, Short: s.ShortCount, E2E: s.E2E()})
	}
}
