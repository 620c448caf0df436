// Package treebuild reconstructs LagAlyzer's in-memory session
// representation (package trace) from a LiLa record stream (package
// lila).
//
// The reconstruction follows Section II-A of the paper: every interval
// type except GC corresponds to a method call/return pair, so a
// per-thread stack suffices to rebuild each thread's properly nested
// interval tree. GC brackets are global — because a stop-the-world
// collection halts every thread, the finished GC interval is copied
// into the interval tree of every thread that was inside an interval
// at the time, and always recorded session-wide.
//
// Top-level Dispatch intervals become episodes. Episodes shorter than
// the filter threshold are dropped and counted, mirroring the tracing
// tool's own 3 ms filter (LagAlyzer "never gets to see such episodes,
// it only is able to see how many such short episodes occurred").
//
// Setting Options.Episode switches the builder to release mode, which
// lifts Section V's "needs to load the complete session trace into
// memory": each episode goes to the hook as its dispatch returns and
// is then dropped, with every tick before the release watermark (see
// Builder.Watermark); GCs are counted, not kept. The stream is
// time-ordered, so the hook sees every tick in the episode's
// [Start, End), as EpisodeTicks would. What release mode keeps — the
// open episodes and the ticks they can reach — is what its memory
// guard charges. What it drops it reuses: once the hook returns, the
// episode's tree goes back to the builder's trace.Slab, as do the
// trees of orphan top-level intervals, filtered short dispatches and
// before-start roots, and each counted GC bracket; the hook gets one
// reused Episode, and a sample chunk is reused once every tick in it
// is dropped. A release-mode build thus allocates for what is open,
// not for the whole session.
package treebuild

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// errInvalid marks a Session.Validate failure, fatal even under
// Lenient; release mode meets it as each episode closes.
var errInvalid = errors.New("treebuild: rebuilt session invalid")

// ErrSessionTooLarge is returned (wrapped) when a session's estimated
// in-memory size exceeds Options.Limits.MaxSessionBytes. Callers that
// can degrade — lagreport's trace loader falls back to the streaming
// analyzer — test for it with errors.Is.
var ErrSessionTooLarge = errors.New("treebuild: session exceeds memory budget")

// Diagnostics reports recoverable oddities found while rebuilding a
// session. They do not fail the build; real profilers produce them
// (e.g. threads that die with open intervals at session end are
// reported by LiLa, and samples can race the GC bracket notifications).
type Diagnostics struct {
	// OrphanTopLevel counts completed top-level intervals that were
	// not dispatches; they belong to no episode and are dropped.
	OrphanTopLevel int
	// SamplesDuringGC counts samples time-stamped inside a GC bracket
	// (the sampler should be stopped with the rest of the world).
	SamplesDuringGC int
	// UndeclaredThreads counts threads that appeared in call or
	// sample records without a preceding thread declaration; they are
	// registered with a synthesized name.
	UndeclaredThreads int
	// FilteredEpisodes counts traced episodes dropped by the filter
	// threshold on the analysis side (in addition to the profiler's
	// own ShortCount).
	FilteredEpisodes int

	// The remaining fields are only ever non-zero under
	// Options.Lenient; a strict build fails instead.

	// SkippedRecords counts records the lenient builder dropped
	// because they were inconsistent with the session state (returns
	// without calls, out-of-order times, nested GC brackets, ...).
	SkippedRecords int
	// FirstSkipError describes the first record skipped.
	FirstSkipError string
	// DroppedOpenIntervals counts intervals still open when a
	// truncated stream ended; the episodes they belong to are lost.
	DroppedOpenIntervals int
	// DroppedEpisodes counts completed episodes discarded because the
	// salvaged timeline pushed them outside the session bounds.
	DroppedEpisodes int
	// SynthesizedEnd is set when the stream had no end record and the
	// lenient builder closed the session at the last seen time stamp.
	SynthesizedEnd bool
	// In release mode, Records counts the records fed (skipped ones
	// included), and Ticks and GCs what the build did not keep in
	// Session.Ticks and Session.GCs; a full build leaves all three zero.
	Records, Ticks, GCs int `json:",omitempty"`
}

// Degraded reports whether the lenient builder had to drop anything.
func (d *Diagnostics) Degraded() bool {
	return d != nil && (d.SkippedRecords > 0 || d.DroppedOpenIntervals > 0 ||
		d.DroppedEpisodes > 0 || d.SynthesizedEnd)
}

// Options configure a session build beyond the fail-stop defaults.
type Options struct {
	// Lenient switches the builder from fail-stop to best-effort: an
	// inconsistent record is skipped (and counted) instead of failing
	// the build, and a stream that ends without its end record yields
	// the session prefix with a synthesized end instead of an error.
	// Pair it with a salvage-mode lila reader to ingest damaged
	// traces end to end.
	Lenient bool
	// Limits bound the rebuilt session's estimated memory
	// (MaxSessionBytes); zero fields take lila.DefaultLimits values.
	Limits lila.Limits
	// Episode, when set, is release mode: it gets each traced episode
	// as it closes (Index counts close order) with the session so far,
	// End not yet known; neither e nor s.Ticks may be kept. Once it
	// returns, the builder reuses e, every node of e.Root's tree, and
	// the sample chunks of the ticks it drops. The built session has no
	// episodes, ticks, or GCs.
	Episode func(s *trace.Session, e *trace.Episode)
}

// BuildOptions consumes the record stream of r until its end record
// and reconstructs the session.
func BuildOptions(r lila.Reader, o Options) (*trace.Session, *Diagnostics, error) {
	b := NewBuilder(r.Header(), o)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if err := b.Feed(rec); err != nil {
			return nil, nil, err
		}
	}
	return b.Finish()
}

// BuildRecords reconstructs a session from an in-memory record slice.
func BuildRecords(h lila.Header, recs []*lila.Record) (*trace.Session, *Diagnostics, error) {
	return BuildRecordsOptions(h, recs, Options{})
}

// BuildRecordsOptions is BuildRecords with explicit options.
func BuildRecordsOptions(h lila.Header, recs []*lila.Record, o Options) (*trace.Session, *Diagnostics, error) {
	b := NewBuilder(h, o)
	if n := len(recs); n > 0 {
		b.sizeTicks(recs[n-1].Time, n)
	}
	for _, rec := range recs {
		if err := b.Feed(rec); err != nil {
			return nil, nil, err
		}
	}
	return b.Finish()
}

// BuildFeed rebuilds a session from produce, which hands feed every
// record in stream order (each valid only during its call) and returns
// feed's first error. until, the producer's end time, pre-sizes the
// ticks.
func BuildFeed(h lila.Header, until trace.Time, o Options, produce func(feed func(*lila.Record) error) error) (*trace.Session, *Diagnostics, error) {
	b := NewBuilder(h, o)
	b.sizeTicks(until, math.MaxInt)
	if err := produce(b.Feed); err != nil {
		return nil, nil, err
	}
	return b.Finish()
}

// BuildV2 rebuilds a session from a v2 file block by block, feeding
// each record while v.Each(o.Lenient, jobs) holds its block, so no
// whole-session record slice ever exists: o.Lenient both salvages
// damaged blocks and rebuilds leniently. The salvage report comes
// back even on error. The first failure in stream order wins: a build
// error, the memory guard included, stops the decode of later blocks.
func BuildV2(v *lila.V2File, jobs int, o Options) (*trace.Session, *Diagnostics, *lila.SalvageReport, error) {
	b := NewBuilder(v.Header(), o)
	// A scanned index (damaged footer) has no time bounds: no hint.
	if blocks := v.Blocks(); len(blocks) > 0 && blocks[len(blocks)-1].MaxTime != math.MaxInt64 {
		b.sizeTicks(blocks[len(blocks)-1].MaxTime, v.NumRecords())
	}
	report, err := v.Each(o.Lenient, jobs, b.Feed)
	if err != nil {
		return nil, nil, report, err
	}
	s, diag, err := b.Finish()
	return s, diag, report, err
}

// Builder is the push form of a session build: Feed it every record in
// stream order (each valid only during its call), then Finish.
// BuildOptions, BuildRecords, BuildFeed, and BuildV2 are loops over it.
type Builder struct {
	h      lila.Header
	opts   Options
	s      *trace.Session
	slab   trace.Slab    // arena behind every Interval/Episode/tick the build creates
	ep     trace.Episode // the one Episode release mode hands its hook
	diag   Diagnostics
	stacks map[trace.ThreadID]*threadStack
	known  map[trace.ThreadID]bool
	gc     *trace.Interval // open GC bracket, nil outside collections
	last   trace.Time
	ended  bool
	est    int64 // estimated retained bytes, checked against MaxSessionBytes
	ticks  int64 // the part of est charged for Session.Ticks
	// release mode: each thread's last episode end, episodes released
	prevEnd  map[trace.ThreadID]trace.Time
	released int
	fed      int // records fed
	open     int // threads inside a top-level dispatch
}

// threadStack is one thread's open intervals, innermost last, and the
// intervals (GC copies included) of the top-level tree they belong to.
type threadStack struct {
	ivs   []*trace.Interval
	nodes int64
}

// Rough per-object costs for the session memory estimate. They only
// need to be the right order of magnitude: the guard exists to catch
// sessions that would balloon to gigabytes, not to meter allocations.
const (
	estIntervalBytes = 160 // Interval struct + child slice slot + episode overhead
	estFrameBytes    = 48  // Frame struct + table-shared string headers
	estSampleBytes   = 96  // ThreadSample + tick bookkeeping
	estThreadBytes   = 128 // ThreadInfo + map entries
)

// NewBuilder starts a session build over the stream headed by h.
func NewBuilder(h lila.Header, o Options) *Builder {
	o.Limits = o.Limits.WithDefaults()
	return &Builder{
		h:    h,
		opts: o,
		s: &trace.Session{
			App:             h.App,
			ID:              h.SessionID,
			Start:           h.Start,
			GUIThread:       h.GUIThread,
			FilterThreshold: h.FilterThreshold,
			SamplePeriod:    h.SamplePeriod,
		},
		stacks:  make(map[trace.ThreadID]*threadStack),
		known:   make(map[trace.ThreadID]bool),
		prevEnd: make(map[trace.ThreadID]trace.Time),
	}
}

// sizeTicks pre-sizes the ticks for one per sample period from the
// session start to last, capped by the record count (when known) and
// by 1<<22 (11.6 h at 10 ms), which bounds what a forged index can
// make it allocate. Release mode keeps too few ticks to need it.
func (b *Builder) sizeTicks(last trace.Time, records int) {
	if p := b.h.SamplePeriod; p > 0 && last > b.h.Start && records > 0 && b.opts.Episode == nil {
		n := (uint64(last)-uint64(b.h.Start))/uint64(p) + 1
		b.s.Ticks = make([]trace.SampleTick, 0, min(n, uint64(records), 1<<22))
	}
}

// charge adds n bytes to the retained-size estimate and trips the
// memory guard when the budget is exceeded. The guard is fatal even
// under Lenient — skipping records would silently bias the analysis —
// but callers can errors.Is for ErrSessionTooLarge and fall back to a
// release-mode build, whose estimate drops what it releases.
func (b *Builder) charge(n int64) error {
	b.est += n
	if b.est > b.opts.Limits.MaxSessionBytes {
		return fmt.Errorf("%w: estimated %d bytes over budget %d",
			ErrSessionTooLarge, b.est, b.opts.Limits.MaxSessionBytes)
	}
	return nil
}

// Feed routes one record through add, applying the lenient skip
// policy: inconsistent records are counted and dropped instead of
// failing the build. Resource-guard trips and Validate-class failures
// stay fatal either way.
func (b *Builder) Feed(rec *lila.Record) error {
	b.fed++
	err := b.add(rec)
	if err == nil || !b.opts.Lenient || errors.Is(err, ErrSessionTooLarge) || errors.Is(err, errInvalid) {
		return err
	}
	b.diag.SkippedRecords++
	if b.diag.FirstSkipError == "" {
		b.diag.FirstSkipError = err.Error()
	}
	return nil
}

func (b *Builder) ensureThread(id trace.ThreadID) {
	if b.known[id] {
		return
	}
	b.known[id] = true
	b.diag.UndeclaredThreads++
	b.s.Threads = append(b.s.Threads, trace.ThreadInfo{ID: id, Name: fmt.Sprintf("thread-%d", id)})
}

func (b *Builder) checkTime(t trace.Time) error {
	if t < b.last {
		return fmt.Errorf("treebuild: record at %v after record at %v: stream not time-ordered", t, b.last)
	}
	b.last = t
	return nil
}

func (b *Builder) add(rec *lila.Record) error {
	if b.ended {
		return fmt.Errorf("treebuild: record after end record")
	}
	switch rec.Type {
	case lila.RecThread:
		if b.known[rec.Thread] {
			return fmt.Errorf("treebuild: duplicate declaration of thread %d", rec.Thread)
		}
		b.known[rec.Thread] = true
		b.s.Threads = append(b.s.Threads, trace.ThreadInfo{ID: rec.Thread, Name: rec.Name, Daemon: rec.Daemon})
		if err := b.charge(estThreadBytes + int64(len(rec.Name))); err != nil {
			return err
		}

	case lila.RecCall:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		if err := b.charge(estIntervalBytes); err != nil {
			return err
		}
		b.ensureThread(rec.Thread)
		iv := b.slab.Interval()
		iv.Kind = rec.Kind
		iv.Class = rec.Class
		iv.Method = rec.Method
		iv.Start = rec.Time
		iv.End = -1 // patched by the matching return
		stk := b.stacks[rec.Thread]
		if stk == nil {
			stk = &threadStack{}
			b.stacks[rec.Thread] = stk
		}
		if len(stk.ivs) == 0 && iv.Kind == trace.KindDispatch {
			b.open++
		}
		stk.ivs = append(stk.ivs, iv)
		stk.nodes++

	case lila.RecReturn:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		stk := b.stacks[rec.Thread]
		if stk == nil || len(stk.ivs) == 0 {
			return fmt.Errorf("treebuild: return on thread %d at %v with no open interval", rec.Thread, rec.Time)
		}
		n := len(stk.ivs) - 1
		iv := stk.ivs[n]
		stk.ivs = stk.ivs[:n]
		iv.End = rec.Time
		if iv.End < iv.Start {
			return fmt.Errorf("treebuild: interval %s on thread %d ends (%v) before it starts (%v)",
				iv.Qualified(), rec.Thread, iv.End, iv.Start)
		}
		if n > 0 {
			parent := stk.ivs[n-1]
			parent.Children = append(parent.Children, iv)
			return nil
		}
		// Completed top-level interval: release mode keeps none of its
		// tree.
		if b.opts.Episode != nil {
			b.est -= stk.nodes * estIntervalBytes
		}
		stk.nodes = 0
		if iv.Kind != trace.KindDispatch {
			b.diag.OrphanTopLevel++
			b.drop(iv)
			return nil
		}
		b.open--
		if iv.Dur() < b.h.FilterThreshold {
			b.diag.FilteredEpisodes++
			b.s.ShortCount++
			b.drop(iv)
			return nil
		}
		if b.beforeStart(iv) {
			b.drop(iv)
			return nil
		}
		if b.opts.Episode != nil {
			b.ep = trace.Episode{Thread: rec.Thread, Root: iv}
			return b.release(&b.ep)
		}
		ep := b.slab.Episode()
		ep.Thread = rec.Thread
		ep.Root = iv
		b.s.Episodes = append(b.s.Episodes, ep)

	case lila.RecGCStart:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		if b.gc != nil {
			return fmt.Errorf("treebuild: nested gcstart at %v (collection open since %v)", rec.Time, b.gc.Start)
		}
		b.gc = b.slab.Interval()
		b.gc.Kind = trace.KindGC
		b.gc.Start = rec.Time
		b.gc.End = -1
		b.gc.Major = rec.Major

	case lila.RecGCEnd:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		if b.gc == nil {
			return fmt.Errorf("treebuild: gcend at %v without gcstart", rec.Time)
		}
		b.gc.End = rec.Time
		// A GC stops all threads: add a copy of the interval to the
		// tree of every thread that was inside an interval.
		copies := int64(1)
		for _, stk := range b.stacks {
			if len(stk.ivs) == 0 {
				continue
			}
			top := stk.ivs[len(stk.ivs)-1]
			// Field by field: a recycled bracket's empty Children must
			// not be shared.
			cp := b.slab.Interval()
			cp.Kind, cp.Start, cp.End, cp.Major = trace.KindGC, b.gc.Start, b.gc.End, b.gc.Major
			top.Children = append(top.Children, cp)
			stk.nodes++
			copies++
		}
		// Release mode counts the bracket and reuses it; time order
		// already guarantees End >= Start.
		switch {
		case b.beforeStart(b.gc):
		case b.opts.Episode == nil:
			b.s.GCs = append(b.s.GCs, b.gc)
		default:
			b.diag.GCs++
			copies--
		}
		b.drop(b.gc)
		b.gc = nil
		if err := b.charge(copies * estIntervalBytes); err != nil {
			return err
		}

	case lila.RecSample:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		cost := estSampleBytes + int64(len(rec.Stack))*estFrameBytes
		b.ticks += cost
		if err := b.charge(cost); err != nil {
			return err
		}
		if b.opts.Episode != nil && !rec.State.Valid() {
			return fmt.Errorf("%w: trace: sample at %v has invalid thread state", errInvalid, rec.Time)
		}
		b.ensureThread(rec.Thread)
		if b.gc != nil {
			b.diag.SamplesDuringGC++
		}
		n := len(b.s.Ticks)
		if b.opts.Episode != nil && b.open == 0 && n > 0 && b.s.Ticks[n-1].Time < rec.Time {
			// No episode is open, so none can reach an earlier tick.
			b.dropTicks(n)
			n = 0
		}
		ts := trace.ThreadSample{Thread: rec.Thread, State: rec.State, Stack: rec.Stack}
		if n > 0 && b.s.Ticks[n-1].Time == rec.Time {
			b.s.Ticks[n-1].Threads = b.slab.AppendSample(b.s.Ticks[n-1].Threads, ts)
		} else {
			b.s.Ticks = append(b.s.Ticks, trace.SampleTick{Time: rec.Time, Threads: b.slab.AppendSample(nil, ts)})
		}

	case lila.RecEnd:
		if err := b.checkTime(rec.Time); err != nil {
			return err
		}
		for id, stk := range b.stacks {
			if stack := stk.ivs; len(stack) > 0 {
				if !b.opts.Lenient {
					return fmt.Errorf("treebuild: thread %d has %d open interval(s) at session end (innermost %s)",
						id, len(stack), stack[len(stack)-1].Qualified())
				}
				// Damaged trace lost the returns; the episodes those
				// intervals belonged to are unfinishable.
				b.diag.DroppedOpenIntervals += len(stack)
				delete(b.stacks, id)
			}
		}
		if b.gc != nil {
			if !b.opts.Lenient {
				return fmt.Errorf("treebuild: collection open at session end")
			}
			b.diag.DroppedOpenIntervals++
			b.gc = nil
		}
		b.s.End = rec.Time
		b.s.ShortCount += rec.Count
		b.ended = true

	default:
		return fmt.Errorf("treebuild: unknown record type %d", rec.Type)
	}
	return nil
}

// beforeStart drops (and counts) a finished episode root or GC bracket
// that damaged input placed before the session start under Lenient;
// time order keeps every End in bounds.
func (b *Builder) beforeStart(iv *trace.Interval) bool {
	if b.opts.Lenient && iv.Start < b.s.Start {
		b.diag.DroppedEpisodes++
		return true
	}
	return false
}

// drop hands a finished tree that nothing keeps back to the slab in
// release mode; a full build's slab only batches allocations.
func (b *Builder) drop(iv *trace.Interval) {
	if b.opts.Episode != nil {
		b.slab.Recycle(iv)
	}
}

// Watermark returns the earlier of the last record's time and the
// start of the earliest open top-level dispatch. No episode that closes
// later starts before it, so everything before it is final; release
// mode keeps no tick before it.
func (b *Builder) Watermark() trace.Time {
	w := b.last
	for _, stk := range b.stacks {
		if len(stk.ivs) > 0 && stk.ivs[0].Kind == trace.KindDispatch {
			w = min(w, stk.ivs[0].Start)
		}
	}
	return w
}

// EstimatedBytes returns the memory guard's estimate of what the build
// retains.
func (b *Builder) EstimatedBytes() int64 { return b.est }

// release applies Validate's episode rules, hands e to the hook,
// recycles its tree, and drops the ticks before the watermark.
func (b *Builder) release(e *trace.Episode) error {
	if err := b.s.CheckEpisode(b.released, e, b.prevEnd, math.MaxInt64); err != nil {
		return fmt.Errorf("%w: %w", errInvalid, err)
	}
	e.Index = b.released
	b.released++
	b.opts.Episode(b.s, e)
	b.slab.Recycle(e.Root)
	cut := b.Watermark()
	b.dropTicks(sort.Search(len(b.s.Ticks), func(i int) bool { return b.s.Ticks[i].Time >= cut }))
	return nil
}

// dropTicks releases the first k ticks, their charge, and the sample
// chunks only they used. It compacts in place: a resliced window would
// keep the dropped samples live.
func (b *Builder) dropTicks(k int) {
	ticks := b.s.Ticks
	cost := b.ticks
	if k < len(ticks) {
		cost = 0
		for i := range ticks[:k] {
			for _, ts := range ticks[i].Threads {
				cost += estSampleBytes + int64(len(ts.Stack))*estFrameBytes
			}
		}
	}
	b.est -= cost
	b.ticks -= cost
	n := copy(ticks, ticks[k:])
	clear(ticks[n:])
	b.s.Ticks = ticks[:n]
	b.slab.DropTicks(k)
	b.diag.Ticks += k
}

// Finish closes the build and returns the session.
func (b *Builder) Finish() (*trace.Session, *Diagnostics, error) {
	if !b.ended {
		if !b.opts.Lenient {
			return nil, nil, fmt.Errorf("treebuild: record stream had no end record")
		}
		// Truncated stream: close the session at the last time stamp we
		// saw and drop whatever was still open.
		b.diag.SynthesizedEnd = true
		for id, stk := range b.stacks {
			if len(stk.ivs) > 0 {
				b.diag.DroppedOpenIntervals += len(stk.ivs)
				delete(b.stacks, id)
			}
		}
		if b.gc != nil {
			b.diag.DroppedOpenIntervals++
			b.gc = nil
		}
		end := b.last
		if end < b.s.Start {
			end = b.s.Start
		}
		b.s.End = end
	}
	sort.SliceStable(b.s.Episodes, func(i, j int) bool {
		return b.s.Episodes[i].Start() < b.s.Episodes[j].Start()
	})
	for i, e := range b.s.Episodes {
		e.Index = i
	}
	if b.opts.Episode != nil {
		b.diag.Records = b.fed
		b.diag.Ticks += len(b.s.Ticks)
		b.s.Ticks = nil
	}
	if err := b.s.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", errInvalid, err)
	}
	diag := b.diag
	return b.s, &diag, nil
}
