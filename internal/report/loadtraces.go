package report

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// mTraceBytes counts the raw trace bytes decoded by LoadTraceDir
// (one atomic add per file, not per record).
var mTraceBytes = obs.NewCounter("report_trace_bytes_total",
	"trace file bytes decoded by the trace-directory loader")

// LoadOptions configure the trace-directory loader.
type LoadOptions struct {
	// Salvage enables damage-tolerant ingest end to end: salvage-mode
	// decoding (drop damaged text lines and v2 blocks), lenient session
	// rebuild (skip inconsistent records, synthesize a missing end),
	// and the release-mode fallback for over-budget sessions.
	Salvage bool
	// Strict restores the historical fail-fast contract: the first
	// file (in sorted path order) that fails to load aborts the whole
	// scan with its error.
	Strict bool
	// Limits are the resource guards; zero fields take defaults.
	Limits lila.Limits
	// Jobs bounds how many trace files are decoded concurrently:
	// 0 means one worker per GOMAXPROCS, 1 restores the sequential
	// loader. The worker count never changes the result — files are
	// merged in sorted path order whatever order they finish in — and
	// under Strict the error surfaced is always the path-order-first
	// failure, exactly as a sequential scan would report. Jobs also
	// bounds the blocks that decode concurrently within one v2 file
	// (see blockJobs), with the same byte-identical result.
	Jobs int
	// Paths, when non-empty, names the exact files to load (already
	// sorted) instead of walking the directory — the hook distributed
	// trace shards use to load their slice of a corpus. Paths outside
	// dir are allowed; dir is then only used in error messages.
	Paths []string
}

func (o LoadOptions) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// blockJobs resolves the intra-file decode width for a load of files
// trace files: each file's share of the worker budget left over by the
// cross-file pool. A single-file load gets all of Jobs; with as many
// files as workers it stays 1, since the file pool already saturates
// the cores.
func (o LoadOptions) blockJobs(files int) int {
	if j := o.jobs(); files > 0 && files < j {
		return j / files
	}
	return 1
}

// LoadTraceDirContext reads every LiLa trace under dir (recursively;
// both encodings, sniffed) with LoadFiles, groups the sessions into
// suites by application name, and returns the suites ordered by name,
// keeping every session (AnalyzeTraceDirContext analyzes the same
// traces without keeping any). A file that fails to load is skipped
// unless o.Strict; the scan errors only when no session loads at all,
// and a canceled context aborts it with the context's error. The
// returned health is non-nil whenever the scan ran, including
// alongside a no-sessions error; its Files list (ordered by path,
// damaged files only) feeds the study's Health section. Results are
// merged in sorted path order regardless of completion order, so
// suites, session order, and the health ledger are byte-identical
// whatever the worker count.
func LoadTraceDirContext(ctx context.Context, dir string, o LoadOptions) ([]*trace.Suite, *StudyHealth, error) {
	paths, err := TracePaths(dir, o)
	if err != nil {
		return nil, nil, err
	}
	loads := LoadFiles(ctx, paths, o, nil)
	order, health, err := sortLoads(ctx, dir, o, loads)
	if err != nil {
		return nil, health, err
	}
	var suites []*trace.Suite
	for _, i := range order {
		s := loads[i].Session
		if n := len(suites); n == 0 || suites[n-1].App != s.App {
			suites = append(suites, &trace.Suite{App: s.App})
		}
		suites[len(suites)-1].Sessions = append(suites[len(suites)-1].Sessions, s)
	}
	return suites, health, nil
}

// AnalyzeTraceDirContext characterizes the traces under dir (or
// o.Paths) as LoadTraceDirContext then AnalyzeSuitesContext would, the
// load's health merged in, but keeps no session: it analyzes the folds
// of FoldTraceDirContext.
func AnalyzeTraceDirContext(ctx context.Context, dir string, o LoadOptions, threshold trace.Dur, progressW io.Writer) (*StudyResult, error) {
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	folds, health, err := FoldTraceDirContext(ctx, dir, o, threshold)
	if err != nil {
		return nil, err
	}
	res := AnalyzeFolds(ctx, folds, threshold, progressW)
	res.Health.Merge(health)
	return res, nil
}

// FoldTraceDirContext folds the traces under dir (or o.Paths) at
// threshold, keeping no session: each file builds in release mode into
// its own engine.AppFold, which closes with the session its build
// finished as. It returns the closed folds in (app, path) order, so
// apps first appear in name order, and the health, which also comes
// with the error of a load where no session survived. A session over a
// full build's memory budget is analyzed, not degraded. A distributed
// trace shard is this load over its path range.
func FoldTraceDirContext(ctx context.Context, dir string, o LoadOptions, threshold trace.Dur) ([]*engine.AppFold, *StudyHealth, error) {
	paths, err := TracePaths(dir, o)
	if err != nil {
		return nil, nil, err
	}
	folds := make([]*engine.AppFold, len(paths))
	loads := LoadFiles(ctx, paths, o, FoldHook(folds, threshold))
	order, health, err := sortLoads(ctx, dir, o, loads)
	if err != nil {
		return nil, health, err
	}
	closed := make([]*engine.AppFold, len(order))
	for k, i := range order {
		folds[i].CloseSession(loads[i].Session)
		closed[k] = folds[i]
	}
	return closed, health, nil
}

// TracePaths returns o.Paths, or else every file under dir, and an
// error when there is none.
func TracePaths(dir string, o LoadOptions) ([]string, error) {
	paths := o.Paths
	if len(paths) == 0 {
		var err error
		if paths, err = ListTraceFiles(dir); err != nil {
			return nil, err
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("report: no trace files under %s", dir)
	}
	return paths, nil
}

// sortLoads turns a directory load's outcomes into its health ledger
// and the indices of the loads with a session, by app name and then
// path. Under o.Strict the first failed file is the error; so is a
// canceled ctx, since a partial merge would misattribute the loss, and
// a load where no session survived (then with the health).
func sortLoads(ctx context.Context, dir string, o LoadOptions, loads []FileLoad) ([]int, *StudyHealth, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, cerr
	}
	health := &StudyHealth{}
	var order []int
	for i, l := range loads {
		s, fh := l.Session, l.Health
		if fh.Error != "" && o.Strict {
			return nil, nil, fmt.Errorf("report: %s: %s", fh.Path, fh.Error)
		}
		if fh.Damaged() {
			health.Files = append(health.Files, fh)
		}
		if s == nil {
			// Fatal file error or streaming-degraded session: either
			// way the study loses one session.
			health.SessionsSkipped++
			mSessionsSkipped.Add(1)
			continue
		}
		order = append(order, i)
	}
	if len(order) == 0 {
		return nil, health, fmt.Errorf("report: no loadable trace sessions under %s (%d files failed)",
			dir, len(health.Files))
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]].Session.App < loads[order[b]].Session.App })
	return order, health, nil
}

// FileLoad is one trace file's outcome from LoadFiles: its session
// (nil when the file contributed none), the session build's
// diagnostics, the file's health entry, and the wall time its load
// took. A file the load never reached — after a Strict failure, or
// once the context was canceled — is the zero FileLoad.
type FileLoad struct {
	Session *trace.Session
	Diag    *treebuild.Diagnostics
	Health  FileHealth
	Elapsed time.Duration
}

// LoadFiles loads each trace file in paths (either encoding, sniffed)
// on a pool of o.Jobs workers and returns the outcomes in path order,
// identical at any worker count. A failed file, one whose load panicked
// included, carries Health.Error; unless o.Strict, a whole session over
// the memory budget is rebuilt in release mode and kept as counts only.
// Under o.Strict no file after a failed one is picked up, but every
// file before it loads, so the first failure in path order is always
// there; a canceled ctx stops pickups too. A non-nil episode is called
// with a file's index just before that file loads and returns its
// episode hook: the session is built in release mode (see
// treebuild.Options.Episode) and comes back closed. A context-carried
// obs.Trace collects a "load" phase span with one "file" child per
// file, attributed to its pool worker.
func LoadFiles(ctx context.Context, paths []string, o LoadOptions, episode func(i int) func(*trace.Session, *trace.Episode)) []FileLoad {
	ctx, endLoad := obs.PhaseSpan(ctx, "load")
	defer endLoad()
	blockJobs := o.blockJobs(len(paths))
	loads := make([]FileLoad, len(paths))
	var stop atomic.Int64 // a failed file's index under Strict
	stop.Store(int64(len(paths)))
	runPool(o.jobs(), len(paths), func(worker, i int) {
		if int64(i) > stop.Load() || ctx.Err() != nil {
			return
		}
		_, end := obs.Span(obs.WithWorker(ctx, worker), "file")
		defer end()
		var hook func(*trace.Session, *trace.Episode)
		if episode != nil {
			hook = episode(i)
		}
		start := time.Now()
		loads[i] = loadOne(paths[i], o, blockJobs, hook)
		loads[i].Elapsed = time.Since(start)
		if o.Strict && loads[i].Health.Error != "" {
			// Files are claimed in path order, so every file before
			// this one is already loading: only later ones are skipped.
			stop.Store(int64(i))
		}
	})
	return loads
}

// ListTraceFiles returns every file under dir (recursively), sorted by
// path — the canonical corpus order the loader merges in. Shard
// planners use it to carve a corpus into contiguous path ranges whose
// concatenation in shard order reproduces the single-node scan.
func ListTraceFiles(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("report: scanning %s: %w", dir, err)
	}
	sort.Strings(paths)
	return paths, nil
}

// loadOne ingests one trace file, decoding a v2 file's blocks on up to
// blockJobs workers and building with the episode hook when it is
// non-nil; a panic anywhere in the load is the file's error.
func loadOne(path string, o LoadOptions, blockJobs int, episode func(*trace.Session, *trace.Episode)) (l FileLoad) {
	defer func() {
		if r := recover(); r != nil {
			l = FileLoad{Health: FileHealth{Path: path, Error: fmt.Sprintf("panic: %v", r)}}
		}
	}()
	fh := &l.Health
	fh.Path = path
	bo := treebuild.Options{Lenient: o.Salvage, Limits: o.Limits, Episode: episode}
	s, diag, rep, err := loadFile(path, o, blockJobs, bo)
	if rep.Damaged() {
		fh.Salvage = rep
	}
	if diag.Degraded() {
		fh.Diagnostics = diag
	}
	if err == nil {
		fh.App = s.App
		l.Session, l.Diag = s, diag
		return l
	}
	if errors.Is(err, treebuild.ErrSessionTooLarge) && episode == nil && !o.Strict {
		// The session tree would blow the memory budget; rebuild in
		// release mode, which keeps only the open episodes and the
		// ticks they can reach, and keep its counts in the health.
		episodes := 0
		bo.Episode = func(*trace.Session, *trace.Episode) { episodes++ }
		if s, diag, _, serr := loadFile(path, o, blockJobs, bo); serr == nil {
			fh.App = s.App
			fh.DegradedToStream = true
			fh.StreamEpisodes = episodes
			fh.StreamRecords = diag.Records
			return l
		}
	}
	fh.Error = err.Error()
	return l
}

// loadFile opens path and builds its session with bo: v2 traces on
// the mapped fast path, text record by record.
func loadFile(path string, o LoadOptions, blockJobs int, bo treebuild.Options) (*trace.Session, *treebuild.Diagnostics, *lila.SalvageReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	if lila.IsV2File(f) {
		return loadV2(f, o, blockJobs, bo)
	}
	return loadText(f, o, bo)
}

// loadText decodes and rebuilds a text trace record by record.
// Anything else the sniffer rejects: a retired
// binary version, or a file that is no LiLa trace.
func loadText(f *os.File, o LoadOptions, bo treebuild.Options) (*trace.Session, *treebuild.Diagnostics, *lila.SalvageReport, error) {
	cr := obs.NewCountingReader(f, nil)
	defer func() { mTraceBytes.Add(cr.Bytes()) }()
	lr, err := lila.NewReaderOptions(cr, lila.ReaderOptions{Salvage: o.Salvage, Limits: o.Limits})
	if err != nil {
		return nil, nil, nil, err
	}
	s, diag, err := treebuild.BuildOptions(lr, bo)
	return s, diag, lila.SalvageOf(lr), err
}

// loadV2 is the v2 fast path: the file is mapped, and its blocks
// decode on up to blockJobs workers straight into the session build,
// from tables read once up front.
func loadV2(f *os.File, o LoadOptions, blockJobs int, bo treebuild.Options) (*trace.Session, *treebuild.Diagnostics, *lila.SalvageReport, error) {
	v, err := lila.OpenV2File(f, o.Limits)
	if err != nil {
		return nil, nil, nil, err
	}
	defer v.Close()
	mTraceBytes.Add(v.Size())
	return treebuild.BuildV2(v, blockJobs, bo)
}

// AnalyzeSuitesContext runs the full per-application characterization
// over already-loaded suites, with phase spans from a context-carried
// obs.Trace and per-app progress lines with an ETA on progressW (nil =
// silent). An app whose analysis fails (a contained engine panic) is
// dropped into the result's Health instead of taking the study down.
func AnalyzeSuitesContext(ctx context.Context, suites []*trace.Suite, threshold trace.Dur, progressW io.Writer) *StudyResult {
	if threshold == 0 {
		threshold = trace.DefaultPerceptibleThreshold
	}
	apps := make([]string, len(suites))
	for i, suite := range suites {
		apps[i] = suite.App
	}
	return analyzeApps(ctx, apps, threshold, progressW, func(ctx context.Context, i int) (*AppResult, error) {
		mSessions.Add(int64(len(suites[i].Sessions)))
		return analyzeSuite(ctx, suites[i], threshold)
	})
}

// FoldHook returns the LoadFiles episode hook that folds file i's
// episodes into a new folds[i] at threshold.
func FoldHook(folds []*engine.AppFold, threshold trace.Dur) func(i int) func(*trace.Session, *trace.Episode) {
	return func(i int) func(*trace.Session, *trace.Episode) {
		f := engine.NewAppFold(threshold)
		folds[i] = f
		return f.Episode
	}
}

// AnalyzeFolds is AnalyzeSuitesContext for closed folds: one
// application per app name in first-seen order, finishing its folds
// merged (engine.MergeByApp). threshold must be the one the folds were
// built at.
func AnalyzeFolds(ctx context.Context, folds []*engine.AppFold, threshold trace.Dur, progressW io.Writer) *StudyResult {
	folds = engine.MergeByApp(folds)
	apps := make([]string, len(folds))
	for i, f := range folds {
		apps[i] = f.App()
	}
	return analyzeApps(ctx, apps, threshold, progressW, func(ctx context.Context, i int) (*AppResult, error) {
		mSessions.Add(int64(folds[i].Sessions()))
		return appResult(apps[i], engine.Finish(ctx, apps[i], folds[i:i+1])), nil
	})
}

// analyzeApps runs analyze for each app in order under a "study" phase
// span, with one "app:" span and progress line per app. A failed app
// lands in the health; once ctx is canceled, every remaining app is
// recorded as canceled so the partial ledger is complete.
func analyzeApps(ctx context.Context, apps []string, threshold trace.Dur, progressW io.Writer,
	analyze func(ctx context.Context, i int) (*AppResult, error)) *StudyResult {
	ctx, endStudy := obs.PhaseSpan(ctx, "study")
	defer endStudy()

	pr := newProgress(progressW, len(apps))
	res := &StudyResult{Config: StudyConfig{Threshold: threshold}, Health: &StudyHealth{}}
	for i, app := range apps {
		if cerr := ctx.Err(); cerr != nil {
			res.Health.Apps = append(res.Health.Apps,
				AppHealth{App: app, Error: cerr.Error(), Reason: LossCanceled})
			continue
		}
		actx, endApp := obs.Span(ctx, "app:"+app)
		a, err := analyze(actx, i)
		endApp()
		pr.step("analyze " + app)
		if err != nil {
			res.Health.Apps = append(res.Health.Apps,
				AppHealth{App: app, Error: err.Error(), Reason: lossReason(ctx, StudyConfig{}, err)})
			continue
		}
		res.Apps = append(res.Apps, a)
		res.Rows = append(res.Rows, a.Overview)
	}
	mApps.Add(int64(len(apps)))
	if len(res.Rows) > 0 {
		res.Rows = append(res.Rows, analysis.MeanOverview(res.Rows))
	}
	return res
}
