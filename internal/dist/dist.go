// Package dist runs a study as shards fanned out over worker lagd
// nodes, merged back into a result byte-identical to a single-node
// run.
//
// The partitioning is chosen so the merge is trivially deterministic:
//
//   - A simulated study shards by application (one shard per app —
//     the simulator derives each app's sessions independently from
//     the seed). A worker ships its app's merged, closed fold, the
//     one its checkpoint store holds or a fresh simulation's
//     (report.StudyFold); the coordinator finishes it in the
//     single-node study as a checkpoint hit
//     (report.StudyConfig.FoldSource). Apps land in catalog order,
//     exactly as a local run.
//
//   - A trace corpus shards into contiguous ranges of the sorted path
//     list. A worker folds its files exactly as a single-node
//     trace-directory load does (report.FoldTraceDirContext) and ships
//     one closed fold per app; the coordinator merges each into its
//     app's fold as the shard lands. Folds merge in any order, so the
//     result reproduces the single-node scan byte for byte whatever
//     order the shards land in.
//
// Robustness is layered around that core: per-attempt timeouts,
// retries by lagd's own policy (serve.Retryable, serve.Backoff; lagd
// runs a shard job once, the coordinator owns its attempts), hedged
// requests for stragglers, worker health probing with ejection and
// re-admission (workerPool), and graceful degradation — a shard that
// exhausts every remote attempt, or fails permanently, is re-run
// locally on the coordinator, or, when local fallback is disabled or
// fails too, itemized in the StudyHealth ledger with the LossShard
// reason. A fold that passes the checksum but is not the one asked
// for (report.StudyConfig.CheckFold for a study app, its threshold for
// a trace shard: worker skew or a bug) is never merged in part: the
// shard degrades as an exhausted one does. A shard is never silently
// dropped.
package dist

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
	"lagalyzer/internal/serve"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// Distribution metrics: the five counters the coordinator exports
// (text and Prometheus forms via the obs registry).
var (
	mShards = obs.NewCounter("dist_shards_total",
		"shards dispatched to workers by the distributed coordinator")
	mRetries = obs.NewCounter("dist_shard_retries_total",
		"shard attempts retried after a retryable failure")
	mHedges = obs.NewCounter("dist_hedges_total",
		"hedge requests launched against straggling shard attempts")
	mEjected = obs.NewCounter("dist_workers_ejected_total",
		"workers ejected from the pool after consecutive failures")
	mDegraded = obs.NewCounter("dist_shards_degraded_total",
		"shards that exhausted remote attempts or failed permanently, and degraded to a local re-run or an itemized loss")
)

// Options configure a Coordinator.
type Options struct {
	// Workers are the base URLs of the worker lagd nodes (e.g.
	// "http://host:8080"). At least one is required.
	Workers []string
	// HTTPClient performs the requests; nil uses http.DefaultClient.
	// Tests wire a faultinject.FlakyTransport here.
	HTTPClient *http.Client
	// AttemptTimeout bounds one remote attempt end to end (submit,
	// poll, fetch state); 0 means 60s.
	AttemptTimeout time.Duration
	// MaxAttempts is the remote-attempt budget per shard (hedges
	// count as part of the attempt that launched them); 0 means 3.
	MaxAttempts int
	// BackoffBase seeds serve.Backoff between attempts, which is
	// capped at 2s; 0 means 25ms.
	BackoffBase time.Duration
	// HedgeAfter launches a second attempt on another worker when the
	// first has not finished within this duration; 0 disables hedging.
	HedgeAfter time.Duration
	// PollInterval is the job-status polling cadence; 0 means 15ms.
	PollInterval time.Duration
	// EjectAfter ejects a worker after this many consecutive failed
	// attempts; 0 means 3. A draining worker (healthz 503) is ejected
	// immediately.
	EjectAfter int
	// EjectCooldown is how long an ejected worker sits out before the
	// pool probes its /healthz for re-admission; 0 means 1s.
	EjectCooldown time.Duration
	// NoLocalFallback disables the coordinator-local re-run of an
	// exhausted shard; the shard is itemized in StudyHealth instead.
	NoLocalFallback bool
	// Logger receives coordination events; nil discards them.
	Logger *slog.Logger
}

func (o Options) attemptTimeout() time.Duration {
	if o.AttemptTimeout > 0 {
		return o.AttemptTimeout
	}
	return 60 * time.Second
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 3
}

func (o Options) backoffBase() time.Duration {
	if o.BackoffBase > 0 {
		return o.BackoffBase
	}
	return 25 * time.Millisecond
}

func (o Options) pollInterval() time.Duration {
	if o.PollInterval > 0 {
		return o.PollInterval
	}
	return 15 * time.Millisecond
}

// Stats are the coordinator's own counts for one run (the obs
// counters aggregate process-wide; Stats isolate a single
// coordinator, which the golden tests assert against).
type Stats struct {
	// Shards dispatched (remote attempts started for distinct shards).
	Shards int
	// Retries after retryable failures.
	Retries int
	// Hedges launched, and how many of them won their race.
	Hedges, HedgeWins int
	// Ejected workers (re-admissions do not decrement).
	Ejected int
	// Degraded shards: exhausted remotely or failed permanently,
	// handled by local re-run or itemized loss.
	Degraded int
	// LocalReruns and Lost split Degraded by outcome.
	LocalReruns, Lost int
}

// Coordinator fans a study out over worker lagd nodes.
type Coordinator struct {
	opt  Options
	pool *workerPool
	log  *slog.Logger

	mu    sync.Mutex
	stats Stats
}

// New builds a Coordinator over opt.Workers.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers configured")
	}
	log := opt.Logger
	if log == nil {
		log = obs.DiscardLogger()
	}
	c := &Coordinator{opt: opt, log: log}
	c.pool = newWorkerPool(opt, c.httpClient(), c.onEject)
	return c, nil
}

func (c *Coordinator) httpClient() *http.Client {
	if c.opt.HTTPClient != nil {
		return c.opt.HTTPClient
	}
	return http.DefaultClient
}

func (c *Coordinator) onEject(url string, err error) {
	c.bump(&c.stats.Ejected)
	mEjected.Add(1)
	c.log.Warn("dist: worker ejected", "worker", url, "err", err)
}

// bump adds one to the count n of c.stats.
func (c *Coordinator) bump(n *int) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// Stats returns a snapshot of the coordinator's counts.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ShardLostError marks a shard the coordinator could not recover: the
// remote budget is exhausted, or an attempt failed permanently, and
// the local fallback was disabled or failed too. It implements LossReason(), so the report layer's
// health ledger records the app with the LossShard reason instead of
// dropping it silently.
type ShardLostError struct {
	// Shard labels the lost unit (app name, or a file-range label for
	// trace shards).
	Shard string
	// Attempts is how many remote attempts were spent.
	Attempts int
	// Err is the last failure.
	Err error
}

func (e *ShardLostError) Error() string {
	return fmt.Sprintf("dist: shard %s lost after %d attempts: %v", e.Shard, e.Attempts, e.Err)
}

func (e *ShardLostError) Unwrap() error { return e.Err }

// LossReason classifies the loss for report.StudyHealth.
func (e *ShardLostError) LossReason() string { return report.LossShard }

// RunStudy runs cfg as a distributed study: one shard per application,
// remote folds finished through the single-node pipeline. The result —
// rows, health, checkpointed folds — is byte-identical to
// report.RunStudyContext on one node, because it IS
// report.RunStudyContext: only the fold producer is swapped for the
// shard client. cfg.Checkpoint / cfg.CheckpointDir double as a shared
// result cache — a checkpointed app (same config hash) is never
// dispatched, whether the checkpoint came from a local or a
// distributed run.
func (c *Coordinator) RunStudy(ctx context.Context, cfg report.StudyConfig) (*report.StudyResult, error) {
	cfg.FoldSource = func(ctx context.Context, p *sim.Profile) (*engine.AppFold, error) {
		return c.appFold(ctx, cfg, p)
	}
	return report.RunStudyContext(ctx, cfg)
}

// appFold fetches one app's merged, closed fold from a worker shard,
// with the full recovery ladder: retries/hedging inside runShard, then
// local re-run, then itemized loss. A shipped fold that fails
// cfg.CheckFold degrades the shard as an exhausted one does.
func (c *Coordinator) appFold(ctx context.Context, cfg report.StudyConfig, p *sim.Profile) (*engine.AppFold, error) {
	spec := serve.JobSpec{
		Kind:     "shard",
		Apps:     []string{p.Name},
		Sessions: cfg.SessionsPerApp,
		Seed:     cfg.Seed,
		Seconds:  cfg.SessionSeconds,
	}
	st, attempts, err := c.runShard(ctx, p.Name, labelHome(p.Name), spec)
	if err == nil {
		if len(st.Folds) != 1 {
			err = fmt.Errorf("dist: shard for app %s returned %d folds", p.Name, len(st.Folds))
		} else if err = cfg.CheckFold(p.Name, st.Folds[0]); err == nil {
			return st.Folds[0], nil
		}
	}
	// Re-simulate locally, with the seeds and session IDs a worker uses.
	var f *engine.AppFold
	err = c.degrade(ctx, p.Name, attempts, err, func() (lerr error) {
		cfg.Sequential = true
		f, lerr = report.StudyFold(ctx, cfg, p, nil)
		return lerr
	})
	return f, err
}

// degrade re-runs a shard whose remote attempts ended in rerr with
// local, unless local fallback is off, and itemizes the loss as a
// ShardLostError if that fails too. Under a canceled ctx the
// coordinator is shutting down: a cancellation, not a degraded shard.
func (c *Coordinator) degrade(ctx context.Context, shard string, attempts int, rerr error, local func() error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	c.bump(&c.stats.Degraded)
	mDegraded.Add(1)
	if c.opt.NoLocalFallback {
		c.bump(&c.stats.Lost)
		return &ShardLostError{Shard: shard, Attempts: attempts, Err: rerr}
	}
	c.log.Warn("dist: shard degraded to a local re-run", "shard", shard, "err", rerr)
	if lerr := local(); lerr != nil {
		c.bump(&c.stats.Lost)
		return &ShardLostError{Shard: shard, Attempts: attempts,
			Err: fmt.Errorf("remote: %v; local re-run: %w", rerr, lerr)}
	}
	c.bump(&c.stats.LocalReruns)
	return nil
}

// RunTraces characterizes the trace corpus under dir across the worker
// pool: the sorted file list is carved into shards contiguous ranges
// (0 means one per worker), each loaded remotely with the same
// recovery ladder as study shards. Shards run concurrently, one lane
// per worker: shard i runs in lane i mod lanes, after the lane's
// earlier shards, and its first attempt goes to the i-th healthy
// worker. Each shard's folds merge into their apps' folds as the shard
// lands, and its health lands in its own slot, merged in shard order,
// which for contiguous ranges is sorted path order; so the result —
// rows, figures, and health ledger — is byte-identical to a
// single-node report.AnalyzeTraceDirContext. progressW receives
// per-app progress lines (nil = silent).
func (c *Coordinator) RunTraces(ctx context.Context, dir string, o report.LoadOptions, shards int, progressW io.Writer) (*report.StudyResult, error) {
	paths, err := report.TracePaths(dir, report.LoadOptions{})
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = len(c.opt.Workers)
	}
	if shards > len(paths) {
		shards = len(paths)
	}

	threshold := trace.DefaultPerceptibleThreshold
	var mu sync.Mutex
	var folds []*engine.AppFold // one per app
	health := make([]*report.StudyHealth, shards)
	lanes := min(shards, len(c.opt.Workers))
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < shards; i += lanes {
				lo, hi := i*len(paths)/shards, (i+1)*len(paths)/shards
				label := fmt.Sprintf("files[%d:%d]", lo, hi)
				shard, h, err := c.traceShard(ctx, dir, o, paths[lo:hi], label, i, threshold)
				if err != nil {
					// Itemized loss: the shard's files are recorded, never
					// silently dropped.
					h = &report.StudyHealth{SessionsSkipped: hi - lo, Apps: []report.AppHealth{
						{App: label, Error: err.Error(), Reason: report.LossShard}}}
				}
				health[i] = h
				mu.Lock()
				folds = engine.MergeByApp(append(folds, shard...))
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	merged := &report.StudyHealth{}
	for _, h := range health {
		merged.Merge(h)
	}
	if len(folds) == 0 {
		return nil, fmt.Errorf("report: no loadable trace sessions under %s (%d files failed)",
			dir, len(merged.Files))
	}
	// Apps are analyzed in name order, as a single-node scan's are.
	slices.SortFunc(folds, func(a, b *engine.AppFold) int { return strings.Compare(a.App(), b.App()) })
	res := report.AnalyzeFolds(ctx, folds, threshold, progressW)
	res.Health.Merge(merged)
	return res, nil
}

// traceShard folds one contiguous file range remotely, degrading to
// the worker's own fold (report.FoldTraceDirContext) run locally when
// the remote budget is exhausted or a shipped fold was tallied at
// another threshold.
func (c *Coordinator) traceShard(ctx context.Context, dir string, o report.LoadOptions, files []string, label string, home int, threshold trace.Dur) ([]*engine.AppFold, *report.StudyHealth, error) {
	spec := serve.JobSpec{Kind: "shard", Dir: dir, Files: files, Salvage: o.Salvage}
	st, attempts, err := c.runShard(ctx, label, home, spec)
	if err == nil {
		i := slices.IndexFunc(st.Folds, func(f *engine.AppFold) bool { return f.Threshold() != threshold })
		if i < 0 {
			return st.Folds, st.Health, nil
		}
		err = fmt.Errorf("dist: shard %s: fold of %s at threshold %v, want %v", label, st.Folds[i].App(), st.Folds[i].Threshold(), threshold)
	}
	var folds []*engine.AppFold
	var health *report.StudyHealth
	err = c.degrade(ctx, label, attempts, err, func() (lerr error) {
		o.Paths = files
		if folds, health, lerr = report.FoldTraceDirContext(ctx, dir, o, threshold); health != nil {
			// A shard whose every file failed is still health.
			return nil
		}
		return lerr
	})
	return folds, health, err
}
