package report

import (
	"bytes"
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
	"lagalyzer/internal/lila"
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

	// FrameSource, when non-nil, replaces local simulation as the
	// producer of each app's suite frame — the distributed coordinator's
	// hook, fetching it from a worker shard. The frame folds exactly as
	// a checkpoint hit does and is saved to the store as received, which
	// is what makes a distributed study byte-identical to a single-node
	// run. An error from FrameSource is recorded in the study health like
	// a simulation failure, classified by lossReason (an error's
	// LossReason() string method sets the Reason); a frame that fails
	// to fold is recorded with LossShard, none of it merged. Like
	// Sequential, it is excluded from Hash(), so distributed and
	// single-node runs share checkpoint stores.
	FrameSource func(ctx context.Context, p *sim.Profile) ([]byte, error)

	// CheckpointDir, when non-empty, makes the study crash-safe: each
	// app's completed session suite is persisted to a content-addressed
	// store rooted there (lagreport uses <out>/.checkpoint), and a
	// restart with an identical configuration (same Hash) loads
	// checkpointed apps instead of re-running them. Because the engine's
	// analysis is a deterministic function of the sessions, a resumed
	// study's output is byte-identical to an uninterrupted run.
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
		if store != nil {
			if a, ok := resumeApp(wctx, cfg, profiles[i], pr, store); ok {
				results[i] = a
				return
			}
			// A miss, or a resume that failed (damage, cancellation or a
			// contained panic): its folds are dropped and the app runs
			// fresh, which classifies any error normally.
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
// suite. Simulated sessions are built in release mode, each folding
// its episodes into its own engine.AppFold as they close, so no
// session is kept; a frame from cfg.FrameSource folds as a checkpoint
// hit does. Saves are best-effort: a failed save costs only
// resumability.
func runApp(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress, store *checkpoint.Store) (*AppResult, error) {
	ctx, endApp := obs.Span(ctx, "app:"+p.Name)
	defer endApp()

	folds := make([]*engine.AppFold, cfg.sessions())
	if cfg.FrameSource != nil {
		frame, err := cfg.FrameSource(ctx, p)
		if err != nil {
			return nil, err
		}
		pr.skip(len(folds), "shard "+p.Name)
		if err := foldFrame(ctx, nil, frame, p.Name, folds, cfg.threshold()); err != nil {
			if ctx.Err() == nil {
				err = &frameError{err}
			}
			return nil, err
		}
		if store != nil {
			_ = store.SaveFrame(p.Name, len(folds), frame)
		}
		return finishApp(ctx, p, pr, folds), nil
	}

	if _, err := simulate(ctx, cfg, p, pr, store, folds); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finishApp(ctx, p, pr, folds), nil
}

// frameError marks a FrameSource frame that passed its producer's
// framing checks but failed to fold, which only version skew or a bug
// on the producing worker makes. The app is lost as a shard.
type frameError struct{ err error }

func (e *frameError) Error() string      { return e.err.Error() }
func (e *frameError) Unwrap() error      { return e.err }
func (e *frameError) LossReason() string { return LossShard }

// resumeApp analyzes p from its checkpointed frame. ok is false when
// the frame misses or fails to fold, and the folds are dropped.
func resumeApp(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress, store *checkpoint.Store) (*AppResult, bool) {
	frame, ok := store.LoadFrame(p.Name)
	if !ok {
		return nil, false
	}
	ctx, endApp := obs.Span(ctx, "app:"+p.Name)
	defer endApp()
	folds := make([]*engine.AppFold, cfg.sessions())
	_, endResume := obs.Span(ctx, "resume")
	err := foldFrame(ctx, store, frame, p.Name, folds, cfg.threshold())
	endResume()
	if err != nil {
		return nil, false
	}
	pr.skip(len(folds), "resume "+p.Name)
	return finishApp(ctx, p, pr, folds), true
}

// foldFrame decodes app's suite frame of len(folds) sessions, building
// session i in release mode into a new folds[i] at threshold and
// closing it. Damage anywhere — framing, a parse, checksum, or build
// error, or a degraded build, in any session — fails the whole frame,
// and with a store is recorded as a failed decode. A panic, which is
// contained, and a context canceled between sessions fail it too.
func foldFrame(ctx context.Context, store *checkpoint.Store, frame []byte, app string, folds []*engine.AppFold, threshold trace.Dur) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanicsRecovered.Add(1)
			err = fmt.Errorf("panic in frame of %s: %v", app, r)
		}
	}()
	name, traces, rest, err := treebuild.SplitSuite(frame)
	if err == nil && (name != app || len(traces) != len(folds) || len(rest) != 0) {
		err = fmt.Errorf("frame of %s holds %d sessions of %q", app, len(traces), name)
	}
	episode := FoldHook(folds, threshold)
	for i := 0; err == nil && i < len(traces); i++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		var s *trace.Session
		if s, err = treebuild.DecodeSession(traces[i], treebuild.Options{Episode: episode(i)}); err == nil {
			folds[i].CloseSession(s)
		}
	}
	if store != nil {
		store.Decoded(err == nil)
	}
	return err
}

// finishApp merges p's closed folds into its result.
func finishApp(ctx context.Context, p *sim.Profile, pr *progress, folds []*engine.AppFold) *AppResult {
	a := appResult(p.Name, engine.Finish(ctx, p.Name, folds))
	a.Profile = p
	pr.step("analyze " + p.Name)
	return a
}

// SimulateFrame simulates p's sessions as a study under cfg does and
// returns their suite frame — the payload a study checkpoints for p —
// building no session: each record stream goes straight into the
// frame. With a non-nil store the frame is saved exactly as a study
// saves it.
func SimulateFrame(ctx context.Context, cfg StudyConfig, p *sim.Profile, store *checkpoint.Store) ([]byte, error) {
	return simulate(ctx, cfg, p, nil, store, nil)
}

// simulate runs p's sessions on the session pool. With folds set,
// session i builds in release mode into a new folds[i], which closes
// when the build ends, and its record stream is teed into the frame
// only with a store; with folds nil, each record stream only goes into
// the frame, and no session is built. A non-nil store saves the frame,
// which is nil when nothing was teed. Each session is one progress
// step and one "simulate" span, in which a release-mode build's
// per-episode engine work also runs.
func simulate(ctx context.Context, cfg StudyConfig, p *sim.Profile, pr *progress, store *checkpoint.Store,
	folds []*engine.AppFold) ([]byte, error) {
	n := cfg.sessions()
	errs := make([]error, n)
	episode := FoldHook(folds, cfg.threshold())
	var traces [][]byte // each session's teed record stream
	if store != nil || folds == nil {
		traces = make([][]byte, n)
	}
	runPool(cfg.workers(), n, func(w, i int) {
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
		fold := func(tee lila.Writer) error {
			s, err := sim.RunTee(scfg, treebuild.Options{Episode: episode(i)}, tee)
			if err == nil {
				folds[i].CloseSession(s)
			}
			return err
		}
		if traces == nil {
			errs[i] = fold(nil)
		} else {
			var buf bytes.Buffer
			tw := treebuild.NewTraceWriter(&buf, scfg.Header())
			if folds == nil {
				errs[i] = sim.Stream(scfg, tw.WriteRecord)
			} else {
				errs[i] = fold(tw)
			}
			if errs[i] == nil {
				errs[i] = tw.Close()
			}
			traces[i] = buf.Bytes()
		}
		endSim()
		pr.step(fmt.Sprintf("sim %s/%d", p.Name, i))
	})
	mSessions.Add(int64(n))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var frame []byte
	if traces != nil {
		frame = treebuild.AppendTraces(nil, p.Name, traces)
	}
	if store != nil {
		_ = store.SaveFrame(p.Name, n, frame)
	}
	return frame, nil
}

func analyzeSuite(ctx context.Context, suite *trace.Suite, threshold trace.Dur) (*AppResult, error) {
	r, err := engine.AnalyzeContextErr(ctx, suite, threshold, engine.Options{})
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
