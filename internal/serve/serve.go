// Package serve is the supervised analysis service behind cmd/lagd:
// a bounded job queue feeding panic-isolated workers that run profile
// studies and trace-directory analyses with per-job deadlines,
// retry-with-backoff for transient failures, admission control that
// sheds load before memory is committed, and a graceful shutdown that
// drains in-flight work and checkpoints the rest.
//
// The supervision model is per-job, not per-process: a job that
// panics, times out, or trips a resource guard fails (or retries)
// alone, and the server keeps serving. Combined with the
// report-layer's crash-safe study checkpoints, a restarted server
// resumes persisted jobs without repeating completed per-app work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/ingest"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// Serve metrics: inflight is a gauge over running jobs; shed counts
// admissions refused by load control; retries counts re-runs of
// retryable study and traces job failures. checkpoint_hits_total lives
// in the checkpoint package.
var (
	mInflight = obs.NewGauge("serve_jobs_inflight",
		"jobs currently executing on a worker")
	mShed = obs.NewCounter("serve_jobs_shed_total",
		"job submissions refused by admission control (queue full or memory budget)")
	mRetries = obs.NewCounter("serve_retries_total",
		"study and traces job attempts re-run after a retryable failure (shard jobs run once and are not counted)")
	mAccepted = obs.NewCounter("serve_jobs_accepted_total",
		"job submissions admitted to the queue")
	mPanics = obs.NewCounter("engine_panics_recovered_total",
		"worker panics contained and converted to attributed errors")
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateCheckpointed marks a job the server accepted but persisted
	// for the next process instead of finishing (graceful shutdown).
	StateCheckpointed JobState = "checkpointed"
)

// JobSpec describes one unit of analysis work, as submitted over the
// HTTP API.
type JobSpec struct {
	// Kind selects the pipeline: "study" simulates and characterizes a
	// profile study; "traces" ingests and characterizes a directory of
	// recorded LiLa traces; "shard" runs one partition of a distributed
	// study (a subset of apps, or an explicit subset of trace files)
	// and keeps its mergeable partial state for GET /jobs/{id}/state.
	Kind string `json:"kind"`

	// Study parameters (Kind "study"; "shard" requires a non-empty
	// Apps for a study-shaped shard). Empty Apps means the full
	// catalog.
	Apps     []string `json:"apps,omitempty"`
	Sessions int      `json:"sessions,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Seconds  float64  `json:"seconds,omitempty"`

	// Trace parameters (Kind "traces"). A traces-shaped "shard" instead
	// names its exact input files in Files (the coordinator owns the
	// directory walk and the partition).
	Dir     string   `json:"dir,omitempty"`
	Files   []string `json:"files,omitempty"`
	Salvage bool     `json:"salvage,omitempty"`

	// DeadlineMS bounds the job's execution (per attempt); 0 takes the
	// server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Job is one accepted unit of work. Fields other than Result are
// guarded by the server mutex; read them through Status.
type Job struct {
	ID       string
	Spec     JobSpec
	State    JobState
	Attempts int
	Err      string
	// permanent is Status.Permanent.
	permanent bool
	// Result holds the (possibly partial) study outcome once the job
	// ran; nil until then, and always for a shard job.
	Result *report.StudyResult

	estimate int64
	started  time.Time
	// selfTrace is the LiLa v2 encoding of the job's own pipeline
	// spans (Config.SelfProfile), served by GET /jobs/{id}/selftrace.
	selfTrace []byte
	// shardState is the checksum-framed partial state of a finished
	// "shard" job, served by GET /jobs/{id}/state.
	shardState []byte
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Partial marks a done job whose study lost whole units of work
	// (the HTTP analogue of exit code 3).
	Partial bool `json:"partial,omitempty"`
	// Permanent marks a failed job whose error Retryable refuses: no
	// worker would run it differently, so a coordinator degrades such a
	// shard at once. Absent (an older worker), a failure is retryable.
	Permanent bool `json:"permanent,omitempty"`
}

// Runner executes one attempt of a study or traces job. Tests
// substitute fakes; production uses the server's built-in pipeline
// dispatch. A shard job always runs the built-in shard worker.
type Runner func(ctx context.Context, spec JobSpec) (*report.StudyResult, error)

// Config tunes the server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the worker pool size (default 2).
	Workers int
	// QueueDepth bounds the pending-job queue (default 16); a full
	// queue sheds with 429.
	QueueDepth int
	// DefaultDeadline bounds each job attempt when the spec does not
	// (default 2 minutes).
	DefaultDeadline time.Duration
	// MaxRetries is the number of re-runs granted to retryable study
	// and traces job failures (default 2; negative means none). A shard
	// job runs once: its coordinator owns every further attempt.
	MaxRetries int
	// RetryBase scales Backoff, capped at 30s (default 100ms; tests
	// shrink it).
	RetryBase time.Duration
	// ShutdownGrace is how long Shutdown lets in-flight jobs finish
	// before canceling their contexts (default 5s). The deadline passed
	// to Shutdown caps the whole sequence.
	ShutdownGrace time.Duration
	// StateDir, when non-empty, persists shutdown-checkpointed jobs to
	// pending.json and roots the per-study checkpoint stores; a new
	// server over the same StateDir restores and re-queues them.
	StateDir string
	// MemoryBudget bounds the summed memory estimates of admitted,
	// unfinished jobs (default lila.DefaultLimits().MaxSessionBytes).
	MemoryBudget int64
	// Limits are the ingest resource guards for trace jobs; zero
	// fields take lila defaults.
	Limits lila.Limits
	// LoadJobs bounds per-job concurrent trace-file decoding
	// (0 = one per CPU, 1 = sequential). Total decode parallelism is
	// Workers × LoadJobs; cap it on small machines.
	LoadJobs int
	// SelfProfile records each job's pipeline spans and keeps them as
	// a LiLa v2 self-trace, downloadable via GET /jobs/{id}/selftrace
	// and — with StateDir — persisted under StateDir/selftrace beside
	// the checkpoint stores.
	SelfProfile bool
	// Logger receives structured job-lifecycle and HTTP access logs;
	// nil disables logging (tests, embedded use).
	Logger *slog.Logger
	// Runner overrides study and traces job execution (tests); nil
	// runs the real pipelines.
	Runner Runner
	// Ingest, when non-nil, mounts the live streaming ingestion
	// surface (POST /ingest/{app}/{session}, GET /ingest/stats) on the
	// handler and ties the ingest server's drain and shutdown to this
	// server's.
	Ingest *ingest.Server
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 16
}

func (c Config) defaultDeadline() time.Duration {
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return 2 * time.Minute
}

func (c Config) maxRetries() int {
	if c.MaxRetries == 0 {
		return 2
	}
	return max(c.MaxRetries, 0)
}

func (c Config) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 100 * time.Millisecond
}

func (c Config) shutdownGrace() time.Duration {
	if c.ShutdownGrace > 0 {
		return c.ShutdownGrace
	}
	return 5 * time.Second
}

func (c Config) memoryBudget() int64 {
	if c.MemoryBudget > 0 {
		return c.MemoryBudget
	}
	return lila.DefaultLimits().MaxSessionBytes
}

// Submission errors. ErrShed carries the 429 semantics (the client
// should back off and retry); ErrDraining the 503 (the server is going
// away).
var (
	ErrShed     = errors.New("serve: load shed, retry later")
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// Server is the supervised job service.
type Server struct {
	cfg   Config
	queue chan *Job

	// runCtx cancels every job attempt; Shutdown cancels it when the
	// grace period expires.
	runCtx    context.Context
	cancelRun context.CancelFunc

	wg sync.WaitGroup

	mu       sync.Mutex
	draining bool
	shut     bool
	jobs     map[string]*Job
	order    []string
	nextID   int
	inflight int
	memInUse int64
	// pending collects jobs to persist at shutdown: still-queued ones
	// plus in-flight jobs cut off by the grace deadline.
	pending []*Job
	// idle is signalled whenever inflight drops to zero.
	idle chan struct{}
	// shard runs a shard job: runShard, or a test's fake.
	shard func(context.Context, JobSpec) (*ShardState, error)
}

// New starts a server: spawns the worker pool and, when cfg.StateDir
// holds a pending.json from a previous shutdown, restores and
// re-queues those jobs.
func New(cfg Config) (*Server, error) {
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.queueDepth()),
		jobs:  map[string]*Job{},
		idle:  make(chan struct{}, 1),
	}
	s.shard = s.runShard
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	if err := s.restorePending(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit admits a job or sheds it. The returned job is queued;
// progress is observed through Status.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	est := estimateMemory(spec, s.cfg)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Admission control, memory axis: refuse work whose estimated
	// footprint would push the admitted total past the budget. The
	// estimate is deliberately pessimistic — shedding is cheap,
	// thrashing is not.
	if s.memInUse+est > s.cfg.memoryBudget() {
		s.mu.Unlock()
		mShed.Inc()
		return nil, fmt.Errorf("%w (estimated %d bytes over budget)", ErrShed, est)
	}
	s.nextID++
	job := &Job{
		ID:       fmt.Sprintf("job-%d", s.nextID),
		Spec:     spec,
		State:    StateQueued,
		estimate: est,
	}
	// Admission control, queue axis: a full queue sheds instead of
	// blocking the submitter.
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		mShed.Inc()
		return nil, fmt.Errorf("%w (queue full)", ErrShed)
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.memInUse += est
	queued := len(s.queue)
	s.mu.Unlock()
	mAccepted.Inc()
	s.cfg.Logger.Info("job accepted",
		"job", job.ID, "kind", spec.Kind, "state", string(StateQueued), "queue", queued)
	return job, nil
}

// Status returns a job's snapshot.
func (s *Server) Status(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return statusOf(job), true
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, statusOf(s.jobs[id]))
	}
	return out
}

// Result returns a finished job's study result (possibly partial).
func (s *Server) Result(id string) (*report.StudyResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok || job.Result == nil {
		return nil, false
	}
	return job.Result, true
}

func statusOf(job *Job) Status {
	st := Status{
		ID:        job.ID,
		Kind:      job.Spec.Kind,
		State:     job.State,
		Attempts:  job.Attempts,
		Error:     job.Err,
		Permanent: job.permanent,
	}
	if job.Result != nil {
		st.Partial = job.Result.Partial()
	}
	return st
}

// Draining reports whether drain has begun (BeginDrain or Shutdown).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain flips the drain signal ahead of Shutdown: /healthz
// answers 503 with a draining body and Submit sheds with ErrDraining,
// so load balancers and distributed-study coordinators stop routing
// here while the HTTP listener finishes its connection drain.
// Idempotent; Shutdown still performs the actual drain and must be
// called afterwards.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.cfg.Ingest != nil {
		// Live ingest sessions flush their partial aggregates and close
		// with drained=true, so the HTTP listener's connection drain is
		// not held open by endless streams.
		s.cfg.Ingest.BeginDrain()
	}
}

func validateSpec(spec JobSpec) error {
	switch spec.Kind {
	case "study":
		for _, name := range spec.Apps {
			if _, err := apps.ByName(name); err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		}
		return nil
	case "traces":
		if spec.Dir == "" {
			return errors.New("serve: traces job needs dir")
		}
		return nil
	case "shard":
		// A shard is study-shaped (explicit apps) or traces-shaped
		// (explicit files) — exactly one, and never the implicit "whole
		// catalog"/"whole directory" forms: the coordinator owns the
		// partition, the worker must not guess it.
		if len(spec.Apps) > 0 && len(spec.Files) > 0 {
			return errors.New("serve: shard job takes apps or files, not both")
		}
		if len(spec.Apps) == 0 && len(spec.Files) == 0 {
			return errors.New("serve: shard job needs apps or files")
		}
		for _, name := range spec.Apps {
			if _, err := apps.ByName(name); err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		}
		return nil
	}
	return fmt.Errorf("serve: unknown job kind %q", spec.Kind)
}

// estimateMemory predicts a job's peak footprint for admission
// control. Trace jobs, trace-shaped shards included, sum their input
// file sizes: a release-mode fold holds far less than its file, so the
// sum safely overestimates, and the lila session budget caps any
// single file. A study job, and a study-shaped shard, which is a study
// of its apps, folds each session as it is simulated, so it scales
// with the session-seconds of the apps in flight (one per GOMAXPROCS):
// their builders and folds; every app's result or shipped fold adds a
// little more until the job ends.
func estimateMemory(spec JobSpec, cfg Config) int64 {
	if paths := spec.Files; spec.Kind == "traces" || len(paths) > 0 {
		if spec.Kind == "traces" {
			paths, _ = report.ListTraceFiles(spec.Dir)
		}
		var total int64
		for _, path := range paths {
			if info, err := os.Stat(path); err == nil {
				total += info.Size()
			}
		}
		return total
	}
	switch spec.Kind {
	case "study", "shard":
		// Measured over the idle server on lagd -workers 1 (2 vCPUs,
		// seed 42), apps × sessions × seconds. Shards: Jmol 4.3 MiB for
		// 1 × 1 × 300, 5.8 for 1 × 4 × 300, 7.1 for 1 × 16 × 300, 6.0
		// for 1 × 4 × 1200; NetBeans (the densest) 9.1 for 1 × 4 × 300,
		// 15.0 for 1 × 16 × 300, 12.0 for 1 × 4 × 1200; 8.1 for 3 × 4 ×
		// 300; 16.2 for 14 × 1 × 300. Studies: 5.5 for 2 × 1 × 300, 9.2
		// for 14 × 1 × 300, 18.7 for 14 × 4 × 300, 28.0 for 14 × 4 ×
		// 600. These constants overestimate all thirteen.
		const (
			foldBytesPerSessionSecond   = 16 << 10
			resultBytesPerSessionSecond = 4 << 10
		)
		nApps, sessionSeconds := studyShape(spec)
		inFlight := min(nApps, runtime.GOMAXPROCS(0))
		return int64(sessionSeconds * float64(inFlight*foldBytesPerSessionSecond+nApps*resultBytesPerSessionSecond))
	}
	return 0
}

// studyShape resolves a study spec's app count and the session-seconds
// simulated per app, defaults applied.
func studyShape(spec JobSpec) (nApps int, sessionSeconds float64) {
	nApps = len(spec.Apps)
	if nApps == 0 {
		nApps = len(apps.Catalog())
	}
	sessions := spec.Sessions
	if sessions == 0 {
		sessions = 4
	}
	seconds := spec.Seconds
	if seconds == 0 {
		seconds = 300 // profiles default to minutes-long sessions
	}
	return nApps, float64(sessions) * seconds
}

// worker pulls jobs until the queue closes. A job received after
// draining began is parked for checkpointing rather than started —
// this closes the race between Shutdown collecting the queue and a
// worker picking up one last job.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		if s.draining {
			job.State = StateCheckpointed
			s.pending = append(s.pending, job)
			s.mu.Unlock()
			continue
		}
		job.State = StateRunning
		job.started = time.Now()
		s.inflight++
		queued := len(s.queue)
		s.mu.Unlock()
		mInflight.Add(1)
		s.cfg.Logger.Info("job running",
			"job", job.ID, "kind", job.Spec.Kind, "state", string(StateRunning), "queue", queued)

		s.runJob(job)
	}
}

// runJob supervises one job: deadline per attempt, retry with Backoff
// for errors Retryable accepts (never for a shard job, whose
// coordinator owns its attempts), panic isolation, and checkpointing
// when shutdown cuts it off.
func (s *Server) runJob(job *Job) {
	defer func() {
		mInflight.Add(-1)
		s.mu.Lock()
		s.inflight--
		s.memInUse -= job.estimate
		if s.inflight == 0 {
			select {
			case s.idle <- struct{}{}:
			default:
			}
		}
		s.mu.Unlock()
	}()

	deadline := s.cfg.defaultDeadline()
	if job.Spec.DeadlineMS > 0 {
		deadline = time.Duration(job.Spec.DeadlineMS) * time.Millisecond
	}
	retries := s.cfg.maxRetries()
	if job.Spec.Kind == "shard" {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		job.Attempts = attempt + 1
		s.mu.Unlock()

		err := s.runOnce(job, deadline)

		s.mu.Lock()
		queued := len(s.queue)
		if err == nil {
			job.State = StateDone
			job.Err = ""
			s.mu.Unlock()
			s.logLifecycle(job, StateDone, queued, nil)
			return
		}
		// Shutdown cut the attempt off: the job goes back into the
		// pending set so the next server instance finishes it (its
		// per-app study checkpoints survive on disk).
		if s.draining && s.runCtx.Err() != nil {
			job.State = StateCheckpointed
			job.Err = err.Error()
			s.pending = append(s.pending, job)
			s.mu.Unlock()
			s.logLifecycle(job, StateCheckpointed, queued, err)
			return
		}
		if !Retryable(err) || attempt >= retries {
			job.State = StateFailed
			job.Err = err.Error()
			job.permanent = !Retryable(err)
			s.mu.Unlock()
			s.logLifecycle(job, StateFailed, queued, err)
			return
		}
		job.Err = err.Error()
		s.mu.Unlock()
		mRetries.Inc()
		s.cfg.Logger.Warn("job retrying",
			"job", job.ID, "kind", job.Spec.Kind, "state", string(StateRunning),
			"queue", queued, "attempt", attempt+1, "err", err.Error(),
			"elapsed", time.Since(job.started).Round(time.Millisecond).String())
		select {
		case <-time.After(Backoff(s.cfg.retryBase(), attempt+1, job.ID, 0, 30*time.Second)):
		case <-s.runCtx.Done():
			// Keep looping: the next runOnce fails fast with the
			// cancellation, and the draining branch checkpoints the job.
		}
	}
}

// logLifecycle emits one structured line for a job's terminal states.
func (s *Server) logLifecycle(job *Job, state JobState, queued int, cause error) {
	args := []any{
		"job", job.ID, "kind", job.Spec.Kind, "state", string(state),
		"queue", queued, "attempts", job.Attempts,
		"elapsed", time.Since(job.started).Round(time.Millisecond).String(),
	}
	if cause != nil {
		args = append(args, "err", cause.Error())
		s.cfg.Logger.Warn("job finished", args...)
		return
	}
	s.cfg.Logger.Info("job finished", args...)
}

// runOnce executes a single attempt under the job deadline with panic
// containment: a panicking pipeline is converted to ErrWorkerPanic
// (retryable) instead of taking the worker down.
func (s *Server) runOnce(job *Job, deadline time.Duration) (err error) {
	ctx, cancel := context.WithTimeout(s.runCtx, deadline)
	defer cancel()
	// With self-profiling on, the attempt's pipeline spans are recorded
	// into a fresh trace (each attempt overwrites the last: the trace
	// that survives describes the run that produced the result). The
	// save defer is registered before the recover defer, so a panicking
	// attempt still flushes the spans it completed.
	if s.cfg.SelfProfile {
		tr := obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
		defer s.saveSelfTrace(job, tr)
	}
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
	}()
	var res *report.StudyResult
	var state []byte
	if job.Spec.Kind == "shard" {
		// A shard's deliverable is its mergeable partial state, framed
		// now: the coordinator fetches these exact bytes from
		// GET /jobs/{id}/state and verifies their checksum end to end.
		var st *ShardState
		if st, err = s.shard(ctx, job.Spec); err == nil {
			state, err = EncodeShardState(st)
		}
	} else {
		runner := s.cfg.Runner
		if runner == nil {
			runner = s.run
		}
		res, err = runner(ctx, job.Spec)
	}
	s.mu.Lock()
	if res != nil {
		job.Result = res
	}
	if state != nil {
		job.shardState = state
	}
	s.mu.Unlock()
	return err
}

// ShardStateBytes returns a finished shard job's checksum-framed
// partial state, if any.
func (s *Server) ShardStateBytes(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok || job.shardState == nil || job.State != StateDone {
		return nil, false
	}
	return job.shardState, true
}

// saveSelfTrace encodes a job attempt's span trace as LiLa v2, keeps
// the bytes on the job for the download endpoint, and — when the
// server persists state — writes StateDir/selftrace/<job>.lila beside
// the checkpoint stores. Failures are logged, never fatal: the job's
// result must not depend on its observability.
func (s *Server) saveSelfTrace(job *Job, tr *obs.Trace) {
	sid := 0
	fmt.Sscanf(job.ID, "job-%d", &sid)
	data, err := selftrace.Encode(tr, selftrace.Options{App: "lagd-" + job.Spec.Kind, SessionID: sid})
	if err != nil {
		s.cfg.Logger.Warn("self-trace encode failed", "job", job.ID, "err", err.Error())
		return
	}
	s.mu.Lock()
	job.selfTrace = data
	s.mu.Unlock()
	if s.cfg.StateDir == "" {
		return
	}
	path := filepath.Join(s.cfg.StateDir, "selftrace", job.ID+".lila")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = obs.WriteFileAtomic(path, data, 0o644)
	} else {
		err = fmt.Errorf("creating selftrace dir: %w", err)
	}
	if err != nil {
		s.cfg.Logger.Warn("self-trace write failed", "job", job.ID, "err", err.Error())
	}
}

// SelfTrace returns a job's LiLa v2 self-trace bytes, if the job ran
// with Config.SelfProfile and has completed at least one attempt.
func (s *Server) SelfTrace(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok || job.selfTrace == nil {
		return nil, false
	}
	return job.selfTrace, true
}

// run is the production Runner: dispatch on the spec kind into the
// report pipelines, threading the study checkpoint store through
// StateDir so a job interrupted by shutdown resumes its completed apps.
func (s *Server) run(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
	switch spec.Kind {
	case "study":
		var profiles []*sim.Profile
		for _, name := range spec.Apps {
			p, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
		cfg := report.StudyConfig{
			Apps:           profiles,
			SessionsPerApp: spec.Sessions,
			Seed:           spec.Seed,
			SessionSeconds: spec.Seconds,
		}
		if s.cfg.StateDir != "" {
			cfg.CheckpointDir = filepath.Join(s.cfg.StateDir, "checkpoint", cfg.Hash())
		}
		return report.RunStudyContext(ctx, cfg)
	case "traces":
		res, err := report.AnalyzeTraceDirContext(ctx, spec.Dir, s.loadOptions(nil, spec.Salvage), trace.DefaultPerceptibleThreshold, nil)
		if err != nil {
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		if len(res.Apps) == 0 {
			return res, errors.New("serve: no app survived analysis")
		}
		return res, nil
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
}

// loadOptions is a trace load of paths (nil: the whole directory)
// under the server's limits.
func (s *Server) loadOptions(paths []string, salvage bool) report.LoadOptions {
	return report.LoadOptions{Paths: paths, Salvage: salvage, Limits: s.cfg.Limits, Jobs: s.cfg.LoadJobs}
}

// runShard executes one partition of a distributed study and returns
// its partial state. A study-shaped shard (explicit apps) ships each
// app's merged, closed fold from report.StudyFold over the worker's
// own checkpoint store under StateDir, which turns repeated dispatches
// of the same shard (coordinator retries, hedges won elsewhere) into
// cache hits. A traces-shaped shard (explicit files) ships the closed
// folds of a single-node load of its files, merged per app; one whose
// every file failed still ships its health.
func (s *Server) runShard(ctx context.Context, spec JobSpec) (*ShardState, error) {
	if len(spec.Apps) > 0 {
		cfg := report.StudyConfig{
			SessionsPerApp: spec.Sessions,
			Seed:           spec.Seed,
			SessionSeconds: spec.Seconds,
		}
		for _, name := range spec.Apps {
			p, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			cfg.Apps = append(cfg.Apps, p)
		}
		var store *checkpoint.Store
		if s.cfg.StateDir != "" {
			// An unopenable store degrades the shard to uncached, as it
			// does a study.
			store, _ = checkpoint.Open(filepath.Join(s.cfg.StateDir, "checkpoint", cfg.Hash()), cfg.Hash())
		}
		st := &ShardState{}
		for _, p := range cfg.Apps {
			f, err := report.StudyFold(ctx, cfg, p, store)
			if err != nil {
				return nil, fmt.Errorf("serve: shard app %s: %w", p.Name, err)
			}
			st.Folds = append(st.Folds, f)
		}
		return st, nil
	}
	folds, health, err := report.FoldTraceDirContext(ctx, spec.Dir, s.loadOptions(spec.Files, spec.Salvage), trace.DefaultPerceptibleThreshold)
	if err != nil && health == nil {
		return nil, err
	}
	return &ShardState{Folds: engine.MergeByApp(folds), Health: health}, nil
}

// Shutdown drains the server: stop admissions, collect still-queued
// jobs for checkpointing, let in-flight jobs finish within the grace
// period (bounded additionally by ctx), then cancel stragglers and
// checkpoint them too. It returns the number of jobs checkpointed for
// the next instance. The server is unusable afterwards.
func (s *Server) Shutdown(ctx context.Context) (int, error) {
	s.mu.Lock()
	if s.shut {
		s.mu.Unlock()
		return 0, errors.New("serve: already shut down")
	}
	s.shut = true
	s.draining = true
	// Close under the mutex: Submit holds it across its queue send, so
	// no submission can race the close and panic on a closed channel.
	close(s.queue)
	s.mu.Unlock()

	// Collect everything still queued. Workers that race us to the
	// channel see draining set and park their job in pending themselves.
	for job := range s.queue {
		s.mu.Lock()
		job.State = StateCheckpointed
		s.pending = append(s.pending, job)
		s.mu.Unlock()
	}

	// Phase 2: wait for in-flight jobs — up to the grace period, and
	// never past the caller's deadline.
	grace := time.NewTimer(s.cfg.shutdownGrace())
	defer grace.Stop()
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-s.idle:
		case <-grace.C:
			s.cancelRun()
		case <-ctx.Done():
			s.cancelRun()
		}
		if s.runCtx.Err() != nil {
			// Canceled: wait for the workers to observe it and park
			// their jobs, which is prompt (engine probes every 64
			// episodes).
			s.wg.Wait()
			break
		}
	}
	s.cancelRun()
	s.wg.Wait()

	n, err := s.persistPending()
	if s.cfg.Ingest != nil {
		// Drain the streaming side too: flush every live session's
		// partials and rotate the journal into a fresh snapshot.
		if _, ierr := s.cfg.Ingest.Shutdown(ctx); ierr != nil && err == nil {
			err = fmt.Errorf("serve: ingest shutdown: %w", ierr)
		}
	}
	return n, err
}

// persistPending writes the checkpointed jobs' specs to
// StateDir/pending.json (atomic), so New can re-queue them.
func (s *Server) persistPending() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.pending, func(i, j int) bool { return s.pending[i].ID < s.pending[j].ID })
	n := len(s.pending)
	if n == 0 || s.cfg.StateDir == "" {
		return n, nil
	}
	specs := make([]JobSpec, 0, n)
	for _, job := range s.pending {
		specs = append(specs, job.Spec)
	}
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return n, err
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return n, err
	}
	return n, obs.WriteFileAtomic(filepath.Join(s.cfg.StateDir, "pending.json"), append(data, '\n'), 0o644)
}

// restorePending re-queues jobs persisted by a previous shutdown.
func (s *Server) restorePending() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	path := filepath.Join(s.cfg.StateDir, "pending.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var specs []JobSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("serve: corrupt pending.json: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	for _, spec := range specs {
		if _, err := s.Submit(spec); err != nil {
			return fmt.Errorf("serve: re-queueing persisted job: %w", err)
		}
	}
	return nil
}
