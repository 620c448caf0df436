// Package ingest is lagd's live streaming ingestion surface: many
// concurrent LiLa record streams arrive over chunked HTTP, each is
// consumed incrementally by a lenient release-mode treebuild builder
// — so a session holds only its open episodes and the ticks they can
// reach — whose episode hook runs the engine's per-episode analysis
// once and folds it into the episode's window: the engine's population
// pair plus a lag histogram and a pattern tally. Windows merge, and
// are queryable mid-session.
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

	"lagalyzer/internal/engine"
	"lagalyzer/internal/patterns"
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

// Aggregate is the mergeable per-window state: the engine's population
// pair over the window's episodes, plus what the engine does not
// tally. Every field is integral, so merging is commutative and
// associative, and the streamed result equals the batch fold of the
// same episodes in any order.
type Aggregate struct {
	// Pop holds every episode of the window, and the perceptible ones:
	// triggers, episode/GC/native time, and the tick tallies behind
	// causes, location and concurrency. A tick inside two overlapping
	// episodes counts once for each, exactly as the engine tallies it.
	Pop [2]engine.Population
	// Treeless counts episodes whose interval tree was dropped by the
	// degraded stats-only mode; they are absent from Patterns but
	// present in every other tally.
	Treeless int

	LagHist [NumLagBuckets]int
	LagMax  trace.Dur

	// Patterns tallies structured episodes by canonical form and counts
	// the unstructured ones (no retained non-GC child below the
	// dispatch); every window that has an episode has one.
	Patterns *patterns.Builder
}

// add folds one analyzed episode; treeless marks an episode the
// stats-only mode took out of pattern classification. It reports
// whether the episode opened a pattern the window had not seen.
func (a *Aggregate) add(e *trace.Episode, info *engine.EpisodeInfo, threshold trace.Dur, treeless bool) (newPattern bool) {
	engine.Fold(&a.Pop, e, info, threshold)
	d := e.Dur()
	a.LagHist[lagBucket(d)]++
	a.LagMax = max(a.LagMax, d)
	if a.Patterns == nil {
		a.Patterns = patterns.NewBuilder(threshold)
	}
	switch {
	case treeless:
		a.Treeless++
	case !info.Structured:
		a.Patterns.AddUnstructured()
	default:
		return a.Patterns.Add(info.Print, d).Count() == 1
	}
	return false
}

// Merge folds o into a; o stays intact.
func (a *Aggregate) Merge(o *Aggregate) {
	for i := range a.Pop {
		a.Pop[i].Merge(&o.Pop[i])
	}
	a.Treeless += o.Treeless
	for i, n := range o.LagHist {
		a.LagHist[i] += n
	}
	a.LagMax = max(a.LagMax, o.LagMax)
	if o.Patterns != nil {
		if a.Patterns == nil {
			a.Patterns = patterns.NewBuilder(o.Patterns.Threshold())
		}
		a.Patterns.Merge(o.Patterns)
	}
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
