// Package ingest is lagd's live streaming ingestion surface: many
// concurrent LiLa record streams arrive over chunked HTTP, each is
// consumed incrementally by a lenient release-mode treebuild builder
// whose episode hook is internal/stream's analyzer — so a session holds
// only its open episodes and the ticks they can reach — and everything
// folds into mergeable per-window aggregate state that is queryable
// mid-session.
//
// The package is built hostile-client-first: per-session and global
// memory budgets with 429/Retry-After shedding and a degraded
// stats-only mode, per-chunk read deadlines and idle-session reaping,
// salvage decoding of mid-stream corruption with per-session
// SalvageReports, disconnect-equals-salvage semantics, and crash-safe
// journaling of completed-window aggregates so a restarted lagd
// resumes without double-counting.
package ingest

import (
	"sort"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/trace"
)

// LagBounds are the upper bounds (exclusive) of the lag histogram's
// buckets; the final bucket is unbounded. The grid is fixed so
// histograms from any two sources merge bucket-by-bucket.
var LagBounds = []trace.Dur{
	trace.Ms(1), trace.Ms(2), trace.Ms(5), trace.Ms(10), trace.Ms(20),
	trace.Ms(50), trace.Ms(100), trace.Ms(200), trace.Ms(500),
	trace.Ms(1000), trace.Ms(2000), trace.Ms(5000), trace.Ms(10000),
	trace.Ms(30000),
}

// NumLagBuckets is len(LagBounds)+1 (the overflow bucket).
const NumLagBuckets = 15

func lagBucket(d trace.Dur) int {
	for i, b := range LagBounds {
		if d < b {
			return i
		}
	}
	return len(LagBounds)
}

// WindowKey identifies one aggregation window: an application and a
// window index in session-relative time (LiLa time stamps count from
// session start, so windows align session phases — startup, steady
// state — across sessions of the same app).
type WindowKey struct {
	App    string `json:"app"`
	Window int64  `json:"window"`
}

// PatternTally is one pattern's contribution to a window.
type PatternTally struct {
	Hash        uint64    `json:"hash"`
	Count       int       `json:"count"`
	Perceptible int       `json:"perceptible"`
	LagTotal    trace.Dur `json:"lag_total_ns"`
	LagMax      trace.Dur `json:"lag_max_ns"`
}

func (p *PatternTally) merge(o *PatternTally) {
	p.Count += o.Count
	p.Perceptible += o.Perceptible
	p.LagTotal += o.LagTotal
	if o.LagMax > p.LagMax {
		p.LagMax = o.LagMax
	}
}

// Aggregate is the mergeable per-window state. Every field is an
// integral tally (counts and duration sums), so merging is
// commutative and associative and the streamed result is identical to
// folding the same episodes in any other order — the property the
// streamed-vs-batch golden test pins.
//
// The tick-derived fields (States/Samples/App/Lib/Runnable/Ticks) sum
// the engine's per-episode tick tallies, so a tick spanning two
// overlapping episodes counts once per episode, exactly as the engine
// tallies it.
type Aggregate struct {
	Episodes    int `json:"episodes"`
	Perceptible int `json:"perceptible"`
	// Unstructured counts episodes excluded from pattern
	// classification (no retained non-GC child below the dispatch).
	Unstructured int `json:"unstructured,omitempty"`
	// Treeless counts episodes whose interval tree was dropped by the
	// degraded stats-only mode; they are absent from Patterns but
	// present in every other tally.
	Treeless int `json:"treeless,omitempty"`

	Triggers     [analysis.NumTriggers]int `json:"triggers"`
	TriggersLong [analysis.NumTriggers]int `json:"triggers_long"`

	EpisodeTime trace.Dur `json:"episode_time_ns"`
	GCTime      trace.Dur `json:"gc_time_ns"`
	NativeTime  trace.Dur `json:"native_time_ns"`

	// Cause/location/concurrency basis over all episodes.
	States     [4]int `json:"states"`
	Samples    int    `json:"samples"`
	AppSamples int    `json:"app_samples"`
	LibSamples int    `json:"lib_samples"`
	Runnable   int    `json:"runnable"`
	Ticks      int    `json:"ticks"`

	LagHist  [NumLagBuckets]int `json:"lag_hist"`
	LagTotal trace.Dur          `json:"lag_total_ns"`
	LagMax   trace.Dur          `json:"lag_max_ns"`

	// Patterns tallies structured episodes by canonical form.
	Patterns map[string]*PatternTally `json:"-"`
}

// epContribution is one finished episode, normalized so the streaming
// consumer and the batch reference fold through the same code path.
type epContribution struct {
	dur        trace.Dur
	trigger    analysis.Trigger
	gc, native trace.Dur

	ticks engine.TickTally

	structured bool
	canon      []byte // valid only during the call
	hash       uint64
	treeless   bool
}

func (a *Aggregate) addEpisode(ec *epContribution, threshold trace.Dur) {
	a.Episodes++
	a.Triggers[ec.trigger]++
	perceptible := ec.dur >= threshold
	if perceptible {
		a.Perceptible++
		a.TriggersLong[ec.trigger]++
	}
	a.EpisodeTime += ec.dur
	a.GCTime += ec.gc
	a.NativeTime += ec.native
	for i, n := range ec.ticks.States {
		a.States[i] += n
	}
	a.Samples += ec.ticks.Samples
	a.AppSamples += ec.ticks.App
	a.LibSamples += ec.ticks.Lib
	a.Runnable += ec.ticks.Runnable
	a.Ticks += ec.ticks.Ticks
	a.LagHist[lagBucket(ec.dur)]++
	a.LagTotal += ec.dur
	if ec.dur > a.LagMax {
		a.LagMax = ec.dur
	}
	switch {
	case ec.treeless:
		a.Treeless++
	case !ec.structured:
		a.Unstructured++
	default:
		if a.Patterns == nil {
			a.Patterns = make(map[string]*PatternTally)
		}
		pt := a.Patterns[string(ec.canon)]
		if pt == nil {
			pt = &PatternTally{Hash: ec.hash}
			a.Patterns[string(ec.canon)] = pt
		}
		pt.Count++
		if perceptible {
			pt.Perceptible++
		}
		pt.LagTotal += ec.dur
		if ec.dur > pt.LagMax {
			pt.LagMax = ec.dur
		}
	}
}

// Merge folds o into a.
func (a *Aggregate) Merge(o *Aggregate) {
	a.Episodes += o.Episodes
	a.Perceptible += o.Perceptible
	a.Unstructured += o.Unstructured
	a.Treeless += o.Treeless
	for i, n := range o.Triggers {
		a.Triggers[i] += n
	}
	for i, n := range o.TriggersLong {
		a.TriggersLong[i] += n
	}
	a.EpisodeTime += o.EpisodeTime
	a.GCTime += o.GCTime
	a.NativeTime += o.NativeTime
	for i, n := range o.States {
		a.States[i] += n
	}
	a.Samples += o.Samples
	a.AppSamples += o.AppSamples
	a.LibSamples += o.LibSamples
	a.Runnable += o.Runnable
	a.Ticks += o.Ticks
	for i, n := range o.LagHist {
		a.LagHist[i] += n
	}
	a.LagTotal += o.LagTotal
	if o.LagMax > a.LagMax {
		a.LagMax = o.LagMax
	}
	for canon, pt := range o.Patterns {
		if a.Patterns == nil {
			a.Patterns = make(map[string]*PatternTally)
		}
		mine := a.Patterns[canon]
		if mine == nil {
			mine = &PatternTally{Hash: pt.Hash}
			a.Patterns[canon] = mine
		}
		mine.merge(pt)
	}
}

// Clone deep-copies the aggregate.
func (a *Aggregate) Clone() *Aggregate {
	cp := *a
	cp.Patterns = nil
	if a.Patterns != nil {
		cp.Patterns = make(map[string]*PatternTally, len(a.Patterns))
		for canon, pt := range a.Patterns {
			v := *pt
			cp.Patterns[canon] = &v
		}
	}
	return &cp
}

// AppTally is the per-application session-level state that has no
// window (the profiler's own short-episode count carries no time
// stamp).
type AppTally struct {
	// Sessions counts sessions whose stream finished (cleanly or by
	// salvage); live sessions are reported separately.
	Sessions int `json:"sessions"`
	// Short counts sub-filter episodes: the profiler's own count plus
	// traced episodes below the filter threshold.
	Short int `json:"short"`
	// E2E sums the sessions' end-to-end durations.
	E2E trace.Dur `json:"e2e_ns"`
}

func (t *AppTally) merge(o *AppTally) {
	t.Sessions += o.Sessions
	t.Short += o.Short
	t.E2E += o.E2E
}

// Tables is the full mergeable aggregate state: per-window aggregates
// plus per-app session tallies.
type Tables struct {
	Windows map[WindowKey]*Aggregate
	Apps    map[string]*AppTally
}

// NewTables returns empty tables.
func NewTables() *Tables {
	return &Tables{
		Windows: make(map[WindowKey]*Aggregate),
		Apps:    make(map[string]*AppTally),
	}
}

func (t *Tables) window(k WindowKey) *Aggregate {
	a := t.Windows[k]
	if a == nil {
		a = &Aggregate{}
		t.Windows[k] = a
	}
	return a
}

func (t *Tables) app(name string) *AppTally {
	a := t.Apps[name]
	if a == nil {
		a = &AppTally{}
		t.Apps[name] = a
	}
	return a
}

// Merge folds o into t.
func (t *Tables) Merge(o *Tables) {
	for k, agg := range o.Windows {
		t.window(k).Merge(agg)
	}
	for name, at := range o.Apps {
		t.app(name).merge(at)
	}
}

// Clone deep-copies the tables.
func (t *Tables) Clone() *Tables {
	cp := NewTables()
	cp.Merge(t)
	return cp
}

// SortedWindows returns the window keys in (app, window) order.
func (t *Tables) SortedWindows() []WindowKey {
	keys := make([]WindowKey, 0, len(t.Windows))
	for k := range t.Windows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].App != keys[j].App {
			return keys[i].App < keys[j].App
		}
		return keys[i].Window < keys[j].Window
	})
	return keys
}
