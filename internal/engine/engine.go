// Package engine is the one definition of LagAlyzer's analyses
// (Section IV of the paper) and the fold that runs them. rules.go
// states each rule once: the trigger classification, the per-tick fold
// behind location, concurrency, and causes, and the mergeable
// population tally with its share derivations. The study reports, the
// streaming analyzer (internal/stream), the ingest batch reference,
// `lagalyzer stats`, and the root API all drive those functions
// instead of restating them.
//
// Every episode is analyzed in ONE traversal of its tree plus one scan
// of its sampling ticks, which together give its structural
// fingerprint, trigger class, location and cause shares, and
// concurrency for both populations (all and perceptible episodes).
//
// An AppFold takes those episodes one session at a time, in whatever
// order they close, and keeps only tallies: the two populations,
// per-pattern counts, one Table III tally per session, and a copy of
// Figure 2's candidate. A release-mode build (treebuild.Options.Episode)
// feeds it as each episode closes, so no session is kept; Analyze feeds
// it from held sessions. Every tally is integral, and Table III's sums
// and Figure 2's pick go by keys, so no rendered result depends on the
// order episodes close in, on how sessions were split across folds, or
// on the order folds merge in.
//
// walk.go holds the one tree walk behind a pattern: the fold's, and
// Classify's and Fingerprint's for callers that hold sessions.
package engine

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"fmt"
	"slices"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// Engine metrics. Counters are flushed once per session, not per
// episode, so instrumentation overhead stays far below the per-episode
// budget. None of these observations feed back into analysis.
var (
	mEpisodes = obs.NewCounter("engine_episodes_total",
		"episodes folded through the fused engine")
	mPanicsRecovered = obs.NewCounter("engine_panics_recovered_total",
		"worker panics contained and converted to attributed errors")
)

// Result is everything a report needs for one application. The
// All/Long pairs are the two populations of the paper's figures: every
// traced episode, and only the perceptible (≥ threshold) ones.
type Result struct {
	Overview analysis.Overview
	Pooled   *patterns.Set
	// Deepest holds Figure 2's episode, Episodes[0], and its ticks: the
	// episode with the largest EpisodeInfo.Size — on a tie the one of
	// the lower session ID, then the earlier start, then the lower
	// episode index — copied so that it outlives the build that
	// released it. Nil when no session had an episode.
	Deepest *trace.Session

	TriggerAll, TriggerLong   analysis.TriggerShares
	LocationAll, LocationLong analysis.LocationShares
	CausesAll, CausesLong     analysis.CauseShares

	ConcurrencyAll, ConcurrencyLong float64
	// TicksAll and TicksLong count the sampling ticks behind the
	// concurrency averages.
	TicksAll, TicksLong int
}

// sessionTally is one session's Table III inputs; its key is ID, then
// every other field in order.
type sessionTally struct {
	ID                         int
	E2E, InEpisode             trace.Dur
	Short, Traced, Perceptible int
	// Dist counts the session's distinct patterns, Covered the
	// episodes in them, and Singletons those with one episode;
	// Descendants and Depth sum the patterns' structural metrics.
	Dist, Covered, Singletons, Descendants, Depth int
}

// AppFold is the mergeable per-application fold. Episode takes the
// episodes of one open session, CloseSession ends it, and Merge adds
// another fold's sessions. Not safe for concurrent use; a parallel load
// gives each file its own AppFold.
type AppFold struct {
	app       string // the app of the last closed session
	threshold trace.Dur
	ea        *EpisodeAnalyzer
	pop       [2]Population // [0] all episodes, [1] perceptible only
	patterns  *patterns.Builder
	sessions  []sessionTally
	deepest   *trace.Session // Figure 2's candidate (see Result.Deepest)
	deepSize  int

	// The open session: its tally so far and its episodes per pattern.
	open      sessionTally
	openCount map[*patterns.Pattern]int
}

// NewAppFold returns an empty fold. threshold is the raw perceptibility
// threshold of the Long population and the overview (0 makes every
// episode perceptible); the pattern set resolves 0 to 100 ms.
func NewAppFold(threshold trace.Dur) *AppFold {
	return &AppFold{
		threshold: threshold,
		ea:        NewEpisodeAnalyzer(),
		patterns:  patterns.NewBuilder(threshold),
		openCount: make(map[*patterns.Pattern]int),
	}
}

// Episode folds one episode of the open session s. It has the
// signature of treebuild.Options.Episode: neither e nor s is kept.
func (f *AppFold) Episode(s *trace.Session, e *trace.Episode) {
	info := f.ea.Analyze(s, e)
	if info.Structured {
		f.openCount[f.patterns.Add(info.Print, e.Dur())]++
	} else {
		f.patterns.AddUnstructured()
	}
	Fold(&f.pop, e, &info, f.threshold)
	f.open.Traced++
	f.open.InEpisode += e.Dur()
	if e.Perceptible(f.threshold) {
		f.open.Perceptible++
	}
	if f.deepest == nil || deeper(info.Size, s.ID, e, f.deepSize, f.deepest) {
		f.deepest, f.deepSize = copyEpisode(s, e), info.Size
	}
}

// deeper reports whether episode e of size, in session id, beats
// Figure 2's candidate d of dsize: the larger size wins, then the lower
// session ID, the earlier start, the lower episode index.
func deeper(size, id int, e *trace.Episode, dsize int, d *trace.Session) bool {
	de := d.Episodes[0]
	return cmp.Or(cmp.Compare(dsize, size), cmp.Compare(id, d.ID), cmp.Compare(e.Start(), de.Start()), cmp.Compare(e.Index, de.Index)) < 0
}

// copyEpisode deep-copies e and the ticks of s inside it into a
// session of its own.
func copyEpisode(s *trace.Session, e *trace.Episode) *trace.Session {
	ticks := append([]trace.SampleTick(nil), s.EpisodeTicks(e)...)
	for i := range ticks {
		ticks[i].Threads = append([]trace.ThreadSample(nil), ticks[i].Threads...)
		for j := range ticks[i].Threads {
			ts := &ticks[i].Threads[j]
			ts.Stack = append([]trace.Frame(nil), ts.Stack...)
		}
	}
	return &trace.Session{App: s.App, ID: s.ID, GUIThread: s.GUIThread, Start: s.Start, Ticks: ticks,
		Episodes: []*trace.Episode{{Index: e.Index, Thread: e.Thread, Root: e.Root.Clone()}}}
}

// CloseSession ends the open session, whose build finished as s, and
// records its app and Table III tally.
func (f *AppFold) CloseSession(s *trace.Session) {
	f.app = s.App
	t := f.open
	t.ID, t.E2E, t.Short = s.ID, s.E2E(), s.ShortCount
	for p, n := range f.openCount {
		t.Dist++
		t.Covered += n
		if n == 1 {
			t.Singletons++
		}
		t.Descendants += p.Descendants
		t.Depth += p.Depth
	}
	f.sessions = append(f.sessions, t)
	f.open = sessionTally{}
	clear(f.openCount)
	mEpisodes.Add(int64(t.Traced))
}

// Merge adds o's closed sessions to f's; merges commute and associate.
// o must not be used afterwards.
func (f *AppFold) Merge(o *AppFold) {
	f.app = cmp.Or(f.app, o.app)
	f.pop[0].Merge(&o.pop[0])
	f.pop[1].Merge(&o.pop[1])
	f.patterns.Merge(o.patterns)
	f.sessions = append(f.sessions, o.sessions...)
	if d := o.deepest; d != nil && (f.deepest == nil || deeper(o.deepSize, d.ID, d.Episodes[0], f.deepSize, f.deepest)) {
		f.deepest, f.deepSize = d, o.deepSize
	}
}

// MergeByApp merges closed folds into one per app, consuming them, in
// the order the apps first appear.
func MergeByApp(folds []*AppFold) []*AppFold {
	var out []*AppFold
	byApp := make(map[string]*AppFold)
	for _, f := range folds {
		if m := byApp[f.app]; m != nil {
			m.Merge(f)
			continue
		}
		byApp[f.app] = f
		out = append(out, f)
	}
	return out
}

// foldWire is a closed AppFold on the wire: every tally, bit for bit.
type foldWire struct {
	App       string
	Threshold trace.Dur
	Pop       [2]Population
	Patterns  *patterns.Builder
	Sessions  []sessionTally
	Deepest   *trace.Session
	DeepSize  int
}

// GobEncode encodes a closed fold, so that the decoded fold merges and
// finishes exactly as f would: a checkpoint payload, and what a
// distributed shard ships.
func (f *AppFold) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(foldWire{f.app, f.threshold, f.pop, f.patterns, f.sessions, f.deepest, f.deepSize})
	return buf.Bytes(), err
}

// GobDecode decodes a fold GobEncode encoded. The fold is closed: it
// merges and finishes, but takes no further episode.
func (f *AppFold) GobDecode(data []byte) error {
	var w foldWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Patterns == nil {
		return fmt.Errorf("engine: fold of %q carries no patterns", w.App)
	}
	*f = AppFold{app: w.App, threshold: w.Threshold, pop: w.Pop, patterns: w.Patterns,
		sessions: w.Sessions, deepest: w.Deepest, deepSize: w.DeepSize}
	return nil
}

// App returns the application of the fold's closed sessions.
func (f *AppFold) App() string { return f.app }

// Threshold returns the perceptibility threshold the fold tallies at.
func (f *AppFold) Threshold() trace.Dur { return f.threshold }

// Sessions returns the number of the fold's closed sessions.
func (f *AppFold) Sessions() int { return len(f.sessions) }

// Finish merges closed folds and derives app's result, consuming
// them, under an engine phase span with merge and overview children.
func Finish(ctx context.Context, app string, folds []*AppFold) *Result {
	ctx, endEngine := obs.PhaseSpan(ctx, "engine")
	defer endEngine()
	return finish(ctx, app, folds)
}

// finish merges closed folds and derives the result, under merge and
// overview spans.
func finish(ctx context.Context, app string, folds []*AppFold) *Result {
	_, endMerge := obs.Span(ctx, "merge")
	f := folds[0]
	for _, o := range folds[1:] {
		f.Merge(o)
	}
	pooled := f.patterns.Finish()
	endMerge()

	_, endOverview := obs.Span(ctx, "overview")
	defer endOverview()
	r := &Result{
		Overview: f.overview(app),
		Pooled:   pooled,
		Deepest:  f.deepest,

		TriggerAll:   f.pop[0].Trigger,
		TriggerLong:  f.pop[1].Trigger,
		LocationAll:  f.pop[0].Location(),
		LocationLong: f.pop[1].Location(),
		CausesAll:    f.pop[0].Causes(),
		CausesLong:   f.pop[1].Causes(),
	}
	r.ConcurrencyAll, r.TicksAll = f.pop[0].Concurrency()
	r.ConcurrencyLong, r.TicksLong = f.pop[1].Concurrency()
	return r
}

// overview derives the Table III row: per-session averages, summed in
// key order, so equal keys mean equal tallies and the order the
// sessions were folded in cannot show.
func (f *AppFold) overview(app string) analysis.Overview {
	slices.SortFunc(f.sessions, func(a, b sessionTally) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.E2E, b.E2E), cmp.Compare(a.InEpisode, b.InEpisode),
			cmp.Compare(a.Short, b.Short), cmp.Compare(a.Traced, b.Traced), cmp.Compare(a.Perceptible, b.Perceptible),
			cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Covered, b.Covered), cmp.Compare(a.Singletons, b.Singletons),
			cmp.Compare(a.Descendants, b.Descendants), cmp.Compare(a.Depth, b.Depth))
	})
	o := analysis.Overview{App: app, Sessions: len(f.sessions)}
	n := float64(len(f.sessions))
	for _, t := range f.sessions {
		o.E2ESeconds += t.E2E.Seconds() / n
		inEpsFrac := 0.0
		if t.E2E > 0 {
			inEpsFrac = float64(t.InEpisode) / float64(t.E2E)
		}
		o.InEpsFrac += inEpsFrac / n
		o.Short += float64(t.Short) / n
		o.Traced += float64(t.Traced) / n
		o.Perceptible += float64(t.Perceptible) / n
		if t.InEpisode > 0 {
			o.LongPerMin += float64(t.Perceptible) / (t.InEpisode.Seconds() / 60) / n
		}

		o.Dist += float64(t.Dist) / n
		o.CoveredEps += float64(t.Covered) / n
		if t.Dist > 0 {
			o.OneEpFrac += (float64(t.Singletons) / float64(t.Dist)) / n
			o.Descs += (float64(t.Descendants) / float64(t.Dist)) / n
			o.Depth += (float64(t.Depth) / float64(t.Dist)) / n
		}
	}
	return o
}

// Analyze folds a suite of held sessions. threshold is the raw
// perceptibility threshold used for the Long population and the
// overview (report passes a resolved, non-zero value; 0 means every
// episode is perceptible).
func Analyze(suite *trace.Suite, threshold trace.Dur) *Result {
	r, err := AnalyzeContextErr(context.Background(), suite, threshold)
	if err != nil {
		// The error-free signature predates panic containment; its
		// callers have no error channel, so a contained panic surfaces
		// the old way.
		panic(err)
	}
	return r
}

// AnalyzeContextErr is Analyze with observability and fault
// containment: when the context carries an obs.Trace, the run records
// an "engine" phase span (with alloc delta) with classify, merge, and
// overview children; a panic is recovered, counted, and returned as an
// error attributed to its session; and context cancellation stops the
// fold within 64 episodes.
func AnalyzeContextErr(ctx context.Context, suite *trace.Suite, threshold trace.Dur) (*Result, error) {
	ctx, endEngine := obs.PhaseSpan(ctx, "engine")
	defer endEngine()
	_, endClassify := obs.Span(ctx, "classify")
	f := NewAppFold(threshold)
	for i, s := range suite.Sessions {
		if err := foldSession(ctx, f, s); err != nil {
			endClassify()
			return nil, fmt.Errorf("engine: %s session %d: %w", suite.App, i, err)
		}
	}
	endClassify()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finish(ctx, suite.App, []*AppFold{f}), nil
}

// foldSession folds and closes one held session.
func foldSession(ctx context.Context, f *AppFold, s *trace.Session) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanicsRecovered.Add(1)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for i, e := range s.Episodes {
		if i%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		f.Episode(s, e)
	}
	f.CloseSession(s)
	return nil
}
