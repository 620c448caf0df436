package report

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// Study metrics. Counters are flushed in whole-run amounts; the
// pool-wait histogram observes once per pool task (a session or an
// app — never per episode).
var (
	mApps = obs.NewCounter("report_apps_total",
		"applications characterized")
	mSessions = obs.NewCounter("report_sessions_total",
		"sessions simulated or loaded")
	mPoolWait = obs.NewHistogram("report_pool_task_wait",
		"delay from pool start to task pickup", nil)
	// mPanicsRecovered shares its name with the engine's counter, so
	// both layers' contained panics land in one time series.
	mPanicsRecovered = obs.NewCounter("engine_panics_recovered_total",
		"worker panics contained and converted to attributed errors")
)

// StudyConfig configures a characterization run.
type StudyConfig struct {
	// Apps are the profiles to study; nil means the full 14-app
	// catalog.
	Apps []*sim.Profile
	// SessionsPerApp is the number of sessions simulated per
	// application; 0 means the paper's four.
	SessionsPerApp int
	// Seed is the base random seed (0 is a valid seed).
	Seed uint64
	// Threshold is the perceptibility threshold; 0 means 100 ms.
	Threshold trace.Dur
	// SessionSeconds overrides every profile's session length when
	// > 0 (used to scale the study down in tests).
	SessionSeconds float64
	// Sequential runs both worker pools (apps and sessions) at size
	// 1. The results are identical either way — each app's analysis is
	// a function of its sessions alone — so this only trades
	// wall-clock for a quiet machine.
	Sequential bool
	// Progress, when non-nil, receives per-session and per-app
	// progress lines with an ETA (lagreport points it at stderr).
	// Progress output never influences results.
	Progress io.Writer
	// AppTimeout, when > 0, bounds each application's simulate+analyze
	// phase; an app that exceeds it fails with context.DeadlineExceeded
	// and is recorded in the study health with the LossTimedOut reason.
	AppTimeout time.Duration

	// FoldSource, when non-nil, replaces local simulation as the
	// producer of each app's merged, closed fold — the distributed
	// coordinator's hook, fetching it from a worker shard. The fold
	// finishes exactly as a checkpoint hit does and is saved to the
	// store as received, which is what makes a distributed study
	// byte-identical to a single-node run. The source checks the fold
	// (CheckFold); an error from it is recorded in the study health
	// like a simulation failure, classified by lossReason (an error's
	// LossReason() string method sets the Reason). Like Sequential, it
	// is excluded from Hash(), so distributed and single-node runs share
	// checkpoint stores.
	FoldSource func(ctx context.Context, p *sim.Profile) (*engine.AppFold, error)

	// CheckpointDir, when non-empty, makes the study crash-safe: each
	// app's merged, closed fold is persisted to a content-addressed
	// store rooted there (lagreport uses <out>/.checkpoint), and a
	// restart with an identical configuration (same Hash) finishes the
	// checkpointed folds instead of re-running their apps. A result is
	// a deterministic function of its fold, so a resumed study's output
	// is byte-identical to an uninterrupted run.
	CheckpointDir string
	// Checkpoint supplies a pre-opened store (tests use it to inject
	// fault-wrapped readers); it takes precedence over CheckpointDir.
	Checkpoint *checkpoint.Store
}

// Hash fingerprints every configuration field that influences the
// checkpointed payload: the app list, session count, seed, threshold,
// and session length. Execution-shape knobs (Sequential, Progress,
// AppTimeout, the checkpoint fields themselves) are deliberately
// excluded — they cannot change the simulated sessions, so a resume
// across e.g. a worker-count change still hits.
func (c StudyConfig) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "lagalyzer-study-v1\n")
	fmt.Fprintf(h, "sessions=%d seed=%d threshold=%d seconds=%g\n",
		c.sessions(), c.Seed, int64(c.threshold()), c.SessionSeconds)
	for _, p := range c.apps() {
		fmt.Fprintf(h, "app=%s\n", p.Name)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (c StudyConfig) apps() []*sim.Profile {
	if c.Apps != nil {
		return c.Apps
	}
	return apps.Catalog()
}

func (c StudyConfig) sessions() int {
	if c.SessionsPerApp > 0 {
		return c.SessionsPerApp
	}
	return 4
}

func (c StudyConfig) threshold() trace.Dur {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return trace.DefaultPerceptibleThreshold
}

// CheckFold returns an error unless f is what a study under c makes of
// app: a fold of app's sessions, c's session count of them, at c's
// threshold. A checkpoint hit and a fold a worker ships both pass it
// before they are finished; a fold that fails came from another
// configuration, version skew, or a bug.
func (c StudyConfig) CheckFold(app string, f *engine.AppFold) error {
	if f.App() != app || f.Threshold() != c.threshold() || f.Sessions() != c.sessions() {
		return fmt.Errorf("report: fold of %d %q sessions at threshold %v, want %d of %q at %v",
			f.Sessions(), f.App(), f.Threshold(), c.sessions(), app, c.threshold())
	}
	return nil
}

func (c StudyConfig) workers() int {
	if c.Sequential {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// runPool runs fn(worker, 0..n-1) on a bounded pool of workers
// goroutines (inline when workers ≤ 1), returning once all calls
// finish. Work is handed out by an atomic counter, so the pool stays
// busy even when item costs are skewed. Each task pickup observes its
// queue wait (delay since the pool started) into the pool-wait
// histogram.
func runPool(workers, n int, fn func(worker, i int)) {
	start := time.Now()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			mPoolWait.Observe(time.Since(start))
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mPoolWait.Observe(time.Since(start))
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// AppResult bundles everything the study computes for one application:
// the engine's result — the Table III row (Overview), the pooled
// patterns, Figure 2's episode, and the two panels of Figures 5-8 —
// plus the pattern views of Figures 3 and 4.
type AppResult struct {
	App string
	// Profile is the simulated application; nil when the suite was
	// loaded from trace files instead of simulated.
	Profile *sim.Profile

	engine.Result

	// Occurrence counts patterns per occurrence class (Figure 4).
	Occurrence map[patterns.Occurrence]int

	// CDF is the cumulative episodes-into-patterns curve (Figure 3).
	CDF []stats.CDFPoint
}

// StudyResult is a full characterization run.
type StudyResult struct {
	Config StudyConfig
	Apps   []*AppResult
	// Rows are the Table III rows in catalog order, with the Mean row
	// appended.
	Rows []analysis.Overview
	// Health records everything the study survived: skipped files,
	// salvaged records, degraded sessions, failed apps. Nil or empty
	// means a fully clean run.
	Health *StudyHealth
}

// Partial reports whether the study lost a whole unit of work (the
// exit-code-3 condition for the CLIs).
func (r *StudyResult) Partial() bool { return r.Health.Partial() }

// AppByName returns one application's results.
func (r *StudyResult) AppByName(name string) (*AppResult, bool) {
	for _, a := range r.Apps {
		if a.App == name {
			return a, true
		}
	}
	return nil, false
}

// TotalEpisodes sums traced episodes over all sessions (the paper
// reports ~250'000 for the full study).
func (r *StudyResult) TotalEpisodes() int {
	n := 0
	for _, a := range r.Apps {
		n += a.TriggerAll.Total
	}
	return n
}

// RunStudy simulates and analyzes the full study. The per-app fan-out
// is bounded by a GOMAXPROCS-sized pool (one worker when Sequential);
// results land in catalog order regardless of completion order, so
// every row is byte-identical to a sequential run.
func RunStudy(cfg StudyConfig) (*StudyResult, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext is RunStudy with observability and crash safety: a
// context carrying an obs.Trace collects a "study" phase span with
// per-app, simulate, and engine child spans (attributed to pool
// workers), cfg.Progress receives per-unit progress lines with an ETA,
// and cfg.CheckpointDir persists completed apps for resume. None of
// these affect results — rows remain byte-identical to an untraced
// sequential run from scratch.
//
// On cancellation (signal, deadline) with at least one completed app,
// RunStudyContext returns BOTH a partial result and the context's
// error: the result carries the survivors plus a health ledger marking
// the abandoned apps LossCanceled, so callers can flush partial output
// before exiting with the partial-success code.
func RunStudyContext(ctx context.Context, cfg StudyConfig) (*StudyResult, error) {
	ctx, endStudy := obs.PhaseSpan(ctx, "study")
	defer endStudy()

	profiles := cfg.apps()
	results := make([]*AppResult, len(profiles))
	errs := make([]error, len(profiles))

	// Crash safety: open (or create) the checkpoint store bound to this
	// configuration's hash. A store that cannot be opened degrades the
	// run to non-checkpointed — a broken disk never blocks analysis.
	store := cfg.Checkpoint
	if store == nil && cfg.CheckpointDir != "" {
		if st, err := checkpoint.Open(cfg.CheckpointDir, cfg.Hash()); err == nil {
			store = st
		}
	}

	// One progress unit per simulated session plus one per app
	// analysis.
	pr := newProgress(cfg.Progress, len(profiles)*(cfg.sessions()+1))

	runPool(cfg.workers(), len(profiles), func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				mPanicsRecovered.Add(1)
				errs[i] = fmt.Errorf("panic: %v", r)
			}
		}()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		wctx := obs.WithWorker(ctx, w)
		if cfg.AppTimeout > 0 {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(wctx, cfg.AppTimeout)
			defer cancel()
		}
		results[i], errs[i] = runApp(wctx, cfg, profiles[i], pr, store)
	})
	mApps.Add(int64(len(profiles)))

	// Graceful degradation: a failed app is recorded in the health and
	// the study continues with the survivors; only a study that loses
	// every app is a total failure.
	res := &StudyResult{Config: cfg, Health: &StudyHealth{}}
	for i, err := range errs {
		if err != nil {
			res.Health.Apps = append(res.Health.Apps, AppHealth{
				App:    profiles[i].Name,
				Error:  err.Error(),
				Reason: lossReason(ctx, cfg, err),
			})
			continue
		}
		res.Apps = append(res.Apps, results[i])
		res.Rows = append(res.Rows, results[i].Overview)
	}
	cancelErr := ctx.Err()
	if len(res.Apps) == 0 {
		if cancelErr != nil {
			return nil, cancelErr
		}
		return nil, fmt.Errorf("report: all %d apps failed (first: %s: %s)",
			len(profiles), res.Health.Apps[0].App, res.Health.Apps[0].Error)
	}
	res.Rows = append(res.Rows, analysis.MeanOverview(res.Rows))
	if cancelErr != nil {
		return res, cancelErr
	}
	return res, nil
}

// lossReason classifies an app failure for the health ledger: a
// deadline hit while the study's own context was still live is the
// per-app timeout firing; any cancellation-shaped error under a dead
// study context means the whole run was being torn down.
func lossReason(ctx context.Context, cfg StudyConfig, err error) string {
	var lr interface{ LossReason() string }
	switch {
	case errors.As(err, &lr):
		// The producer already classified the loss (e.g. a distributed
		// shard exhausted every recovery path → LossShard).
		return lr.LossReason()
	case errors.Is(err, context.DeadlineExceeded) && cfg.AppTimeout > 0 && ctx.Err() == nil:
		return LossTimedOut
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		return LossCanceled
	}
	return ""
}

// runApp produces, analyzes, and (with a store) checkpoints one app's
// merged, closed fold (studyFold).
func runApp(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress, store *checkpoint.Store) (*AppResult, error) {
	ctx, endApp := obs.Span(ctx, "app:"+p.Name)
	defer endApp()
	f, err := studyFold(ctx, cfg, p, pr, store)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := appResult(p.Name, engine.Finish(ctx, p.Name, []*engine.AppFold{f}))
	a.Profile = p
	pr.step("analyze " + p.Name)
	return a, nil
}

// StudyFold returns p's merged, closed fold under cfg: the store's,
// when it holds one that passes cfg.CheckFold, or else p's sessions
// simulated and folded, which a non-nil store then saves. It never
// consults cfg.FoldSource: this is what a worker shard ships and what
// the coordinator re-runs locally when a shard is lost.
func StudyFold(ctx context.Context, cfg StudyConfig, p *sim.Profile, store *checkpoint.Store) (*engine.AppFold, error) {
	cfg.FoldSource = nil
	return studyFold(ctx, cfg, p, nil, store)
}

// studyFold is StudyFold with cfg.FoldSource, when set, producing a
// fold the store misses in place of the simulation. Saves are
// best-effort: a failed save costs only resumability.
func studyFold(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress, store *checkpoint.Store) (*engine.AppFold, error) {
	if store != nil {
		_, endResume := obs.Span(ctx, "resume")
		f, ok := store.Load(p.Name, func(f *engine.AppFold) error { return cfg.CheckFold(p.Name, f) })
		endResume()
		if ok {
			pr.skip(cfg.sessions(), "resume "+p.Name)
			return f, nil
		}
	}
	var f *engine.AppFold
	var err error
	if cfg.FoldSource != nil {
		if f, err = cfg.FoldSource(ctx, p); err == nil {
			pr.skip(cfg.sessions(), "shard "+p.Name)
		}
	} else {
		f, err = simulate(ctx, cfg, p, pr)
	}
	if err != nil {
		return nil, err
	}
	if store != nil {
		_ = store.Save(p.Name, f)
	}
	return f, nil
}

// simulate runs p's sessions on the session pool, each building in
// release mode into its pool worker's fold and closing there when the
// build ends, and merges the worker folds. Each session is one progress
// step and one "simulate" span, in which the build's per-episode engine
// work also runs.
func simulate(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress) (*engine.AppFold, error) {
	n := cfg.sessions()
	folds := make([]*engine.AppFold, min(cfg.workers(), n))
	for w := range folds {
		folds[w] = engine.NewAppFold(cfg.threshold())
	}
	errs := make([]error, n)
	runPool(len(folds), n, func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				mPanicsRecovered.Add(1)
				errs[i] = fmt.Errorf("panic in session %d: %v", i, r)
			}
		}()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		_, endSim := obs.Span(obs.WithWorker(ctx, w), "simulate")
		scfg := sim.Config{Profile: p, SessionID: i, Seed: cfg.Seed, SessionSeconds: cfg.SessionSeconds}
		s, err := sim.RunOptions(scfg, treebuild.Options{Episode: folds[w].Episode})
		if err == nil {
			folds[w].CloseSession(s)
		}
		errs[i] = err
		endSim()
		pr.step(fmt.Sprintf("sim %s/%d", p.Name, i))
	})
	mSessions.Add(int64(n))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, o := range folds[1:] {
		folds[0].Merge(o)
	}
	return folds[0], nil
}

func analyzeSuite(ctx context.Context, suite *trace.Suite, threshold trace.Dur) (*AppResult, error) {
	r, err := engine.AnalyzeContextErr(ctx, suite, threshold)
	if err != nil {
		return nil, err
	}
	return appResult(suite.App, r), nil
}

// appResult wraps an application's engine result with its pattern
// views.
func appResult(app string, r *engine.Result) *AppResult {
	return &AppResult{
		App:        app,
		Result:     *r,
		Occurrence: r.Pooled.OccurrenceCounts(),
		CDF:        r.Pooled.CDF(),
	}
}

// OccurrenceFracs converts pattern occurrence counts into the
// fractions plotted in Figure 4, in the figure's stacking order
// (always, sometimes, once, never).
func (a *AppResult) OccurrenceFracs() map[patterns.Occurrence]float64 {
	total := 0
	for _, n := range a.Occurrence {
		total += n
	}
	fr := make(map[patterns.Occurrence]float64, len(a.Occurrence))
	if total == 0 {
		return fr
	}
	for occ, n := range a.Occurrence {
		fr[occ] = float64(n) / float64(total)
	}
	return fr
}
