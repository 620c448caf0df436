package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lagalyzer/internal/report"
)

// waitState polls a job until it reaches want (or the test times out).
func waitState(t *testing.T, s *Server, id string, want JobState) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed (%s) while waiting for %s", id, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
	return Status{}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// okRunner completes instantly with an empty (but non-nil) result.
func okRunner(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
	return &report.StudyResult{Health: &report.StudyHealth{}}, nil
}

func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: okRunner})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateDone)
	if st.Attempts != 1 || st.Error != "" {
		t.Errorf("status = %+v, want 1 clean attempt", st)
	}
	if _, ok := s.Result(job.ID); !ok {
		t.Error("done job has no result")
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("Jobs() = %+v", jobs)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: okRunner})
	if _, err := s.Submit(JobSpec{Kind: "nonsense"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := s.Submit(JobSpec{Kind: "traces"}); err == nil {
		t.Error("traces job without dir accepted")
	}
	if _, err := s.Submit(JobSpec{Kind: "study", Apps: []string{"NoSuchApp"}}); err == nil {
		t.Error("study with unknown app accepted")
	}
}

// TestShedQueueFull: with one blocked worker and a depth-1 queue, a
// third submission must shed with ErrShed and count into
// serve_jobs_shed_total (the 429 path).
func TestShedQueueFull(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			<-release
			return okRunner(ctx, spec)
		},
	})
	defer close(release)

	first, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	if _, err := s.Submit(JobSpec{Kind: "study"}); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}

	shedBefore := mShed.Value()
	_, err = s.Submit(JobSpec{Kind: "study"})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflow submission: err = %v, want ErrShed", err)
	}
	if d := mShed.Value() - shedBefore; d != 1 {
		t.Errorf("serve_jobs_shed_total delta = %d, want 1", d)
	}
}

// TestShedMemoryBudget: a job whose estimated footprint exceeds the
// admitted-memory budget is refused before any work starts.
func TestShedMemoryBudget(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		MemoryBudget: 1 << 20, // 1 MiB: far below any full-study estimate
		Runner:       okRunner,
	})
	shedBefore := mShed.Value()
	_, err := s.Submit(JobSpec{Kind: "study"}) // full catalog, default sessions
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if d := mShed.Value() - shedBefore; d != 1 {
		t.Errorf("serve_jobs_shed_total delta = %d, want 1", d)
	}
	// A small job still fits.
	if _, err := s.Submit(JobSpec{Kind: "study", Apps: []string{"CrosswordSage"}, Sessions: 1, Seconds: 5}); err != nil {
		t.Errorf("small job shed too: %v", err)
	}
}

// TestRetryTransientFailure: a runner that fails twice with a
// transient error then succeeds must be retried to completion, with
// serve_retries_total counting each re-run.
func TestRetryTransientFailure(t *testing.T) {
	attempts := 0
	s := newTestServer(t, Config{
		Workers:   1,
		RetryBase: time.Millisecond,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			attempts++
			if attempts <= 2 {
				return nil, fmt.Errorf("flaky backend: %w", ErrTransient)
			}
			return okRunner(ctx, spec)
		},
	})
	retriesBefore := mRetries.Value()
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateDone)
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if d := mRetries.Value() - retriesBefore; d != 2 {
		t.Errorf("serve_retries_total delta = %d, want 2", d)
	}
}

// TestPermanentFailureNotRetried: input-shaped errors fail immediately.
func TestPermanentFailureNotRetried(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:   1,
		RetryBase: time.Millisecond,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			return nil, fmt.Errorf("opening trace: %w", fs.ErrNotExist)
		},
	})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateFailed)
	if st.Attempts != 1 || !st.Permanent {
		t.Errorf("status = %+v, want one permanent attempt (no retry for permanent errors)", st)
	}
}

// TestPanicIsolation: a panicking job neither kills the worker nor the
// server; it is converted to ErrWorkerPanic and retried.
func TestPanicIsolation(t *testing.T) {
	attempts := 0
	s := newTestServer(t, Config{
		Workers:   1,
		RetryBase: time.Millisecond,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			attempts++
			if attempts == 1 {
				panic("corrupted shard")
			}
			return okRunner(ctx, spec)
		},
	})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateDone)
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one panic, one success)", st.Attempts)
	}
	// The worker survived: the server still accepts and runs jobs.
	job2, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job2.ID, StateDone)
}

// TestShardPanicNotRetried: a panicking shard job fails after one
// attempt — its coordinator owns every further attempt — and stays
// retryable there.
func TestShardPanicNotRetried(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetryBase: time.Millisecond})
	s.shard = func(context.Context, JobSpec) (*ShardState, error) { panic("corrupted shard") }
	retriesBefore := mRetries.Value()
	job, err := s.Submit(JobSpec{Kind: "shard", Apps: []string{"CrosswordSage"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateFailed)
	if st.Attempts != 1 || st.Permanent || !strings.Contains(st.Error, "corrupted shard") {
		t.Errorf("status = %+v, want one retryable attempt dead on the panic", st)
	}
	if d := mRetries.Value() - retriesBefore; d != 0 {
		t.Errorf("serve_retries_total delta = %d, want 0", d)
	}
}

// TestJobDeadline: an attempt that outlives its per-job deadline fails
// with DeadlineExceeded and is not retried (deadlines are permanent).
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	job, err := s.Submit(JobSpec{Kind: "study", DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, job.ID, StateFailed)
	if st.Attempts != 1 || !strings.Contains(st.Error, "deadline") {
		t.Errorf("status = %+v, want one attempt dead on deadline", st)
	}
}

// TestGracefulShutdownDrains is the ISSUE's drain test: the in-flight
// job completes, the queued job is checkpointed to pending.json, and a
// new server over the same state dir restores it.
func TestGracefulShutdownDrains(t *testing.T) {
	stateDir := t.TempDir()
	release := make(chan struct{})
	s, err := New(Config{
		Workers:  1,
		StateDir: stateDir,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			if spec.Seed == 1 {
				<-release
			}
			return okRunner(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	inflight, err := s.Submit(JobSpec{Kind: "study", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, inflight.ID, StateRunning)
	queued, err := s.Submit(JobSpec{Kind: "study", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var checkpointed int
	var shutErr error
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		checkpointed, shutErr = s.Shutdown(ctx)
	}()
	// Let the in-flight job finish mid-drain.
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-done
	if shutErr != nil {
		t.Fatal(shutErr)
	}

	if st, _ := s.Status(inflight.ID); st.State != StateDone {
		t.Errorf("in-flight job state = %s, want done (drained)", st.State)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCheckpointed {
		t.Errorf("queued job state = %s, want checkpointed", st.State)
	}
	if checkpointed != 1 {
		t.Errorf("Shutdown checkpointed %d jobs, want 1", checkpointed)
	}

	// No new work after drain.
	if _, err := s.Submit(JobSpec{Kind: "study"}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown Submit err = %v, want ErrDraining", err)
	}

	// pending.json holds exactly the checkpointed spec…
	data, err := os.ReadFile(filepath.Join(stateDir, "pending.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []JobSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Seed != 2 {
		t.Fatalf("pending specs = %+v, want the seed-2 job", specs)
	}

	// …and a successor server restores and finishes it.
	s2 := newTestServer(t, Config{Workers: 1, StateDir: stateDir, Runner: okRunner})
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("restored jobs = %d, want 1", len(jobs))
	}
	waitState(t, s2, jobs[0].ID, StateDone)
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json")); !os.IsNotExist(err) {
		t.Error("pending.json not consumed on restore")
	}
}

// TestShutdownGraceCutsOffStuckJob: a job that never finishes is cut
// off when the grace period expires and checkpointed instead of
// blocking shutdown forever.
func TestShutdownGraceCutsOffStuckJob(t *testing.T) {
	stateDir := t.TempDir()
	s, err := New(Config{
		Workers:       1,
		ShutdownGrace: 30 * time.Millisecond,
		StateDir:      stateDir,
		Runner: func(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
			<-ctx.Done() // simulates a long study honoring cancellation
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateRunning)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	checkpointed, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %s despite a 30ms grace", elapsed)
	}
	if checkpointed != 1 {
		t.Errorf("checkpointed = %d, want the cut-off job", checkpointed)
	}
	if st, _ := s.Status(job.ID); st.State != StateCheckpointed {
		t.Errorf("stuck job state = %s, want checkpointed", st.State)
	}
}

// TestHTTPAPI drives the full loop over the wire with the real
// pipeline: submit a tiny study, poll to done, fetch all three result
// formats, and verify shed returns 429 + Retry-After.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, StateDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kind":"study","apps":["CrosswordSage"],"sessions":1,"seed":3,"seconds":20}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var accepted struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitState(t, s, accepted.ID, StateDone)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/jobs/" + accepted.ID); code != 200 || !strings.Contains(body, `"done"`) {
		t.Errorf("status endpoint: %d %q", code, body)
	}
	if code, body := get("/jobs/" + accepted.ID + "/result"); code != 200 || !strings.Contains(body, "CrosswordSage") {
		t.Errorf("text result: %d (len %d)", code, len(body))
	}
	if code, body := get("/jobs/" + accepted.ID + "/result?format=html"); code != 200 || !strings.Contains(body, "<html") {
		t.Errorf("html result: %d (len %d)", code, len(body))
	}
	if code, body := get("/jobs/" + accepted.ID + "/result?format=json"); code != 200 || !strings.Contains(body, `"rows"`) {
		t.Errorf("json result: %d %q", code, body)
	}
	if code, _ := get("/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("missing job status = %d, want 404", code)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "serve_jobs_accepted_total") {
		t.Errorf("metrics: %d (len %d)", code, len(body))
	}
}

// TestHTTPShed429: over-budget submissions answer 429 with Retry-After.
func TestHTTPShed429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MemoryBudget: 1 << 20, Runner: okRunner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"study"}`)) // full catalog: over the 1 MiB budget
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	base, max := 10*time.Millisecond, time.Second
	for attempt := 1; attempt <= 5; attempt++ {
		a := Backoff(base, attempt, "shard-a", 0, max)
		b := Backoff(base, attempt, "shard-a", 0, max)
		if a != b {
			t.Errorf("attempt %d: %s vs %s — jitter is not deterministic", attempt, a, b)
		}
		// Jitter stays inside [0.75, 1.25) of the exponential step.
		exp := base << (attempt - 1)
		if a < exp*3/4 || a > exp*5/4 {
			t.Errorf("attempt %d: %s outside jitter window of %s", attempt, a, exp)
		}
	}
	// Distinct keys desynchronize.
	same := true
	for attempt := 1; attempt <= 5; attempt++ {
		if Backoff(base, attempt, "shard-a", 0, max) != Backoff(base, attempt, "shard-b", 0, max) {
			same = false
		}
	}
	if same {
		t.Error("different keys share an identical backoff schedule")
	}
}

func TestBackoffRetryAfterHint(t *testing.T) {
	base, max := 10*time.Millisecond, 500*time.Millisecond
	// A modest hint raises the floor above the exponential step.
	if d := Backoff(base, 1, "s", 200*time.Millisecond, max); d < 150*time.Millisecond {
		t.Errorf("hinted backoff = %s, want at least 0.75×hint", d)
	}
	// A hostile hint cannot stretch past the cap: the retry budget
	// wins over the server's Retry-After.
	if d := Backoff(base, 1, "s", time.Hour, max); d > max {
		t.Errorf("hinted backoff = %s exceeds cap %s", d, max)
	}
}

// TestBackoffCap: no delay passes the cap, and lagd's schedule (100ms
// base, 30s cap) stays positive and within [0.75 × cap, cap] once it
// reaches the cap, up to retries where base << attempt overflows.
func TestBackoffCap(t *testing.T) {
	max := 100 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		if d := Backoff(50*time.Millisecond, attempt, "s", 0, max); d > max {
			t.Errorf("attempt %d: %s exceeds cap %s", attempt, d, max)
		}
	}
	base, max := 100*time.Millisecond, 30*time.Second
	capped := false
	for attempt := 1; attempt <= 64; attempt++ {
		d := Backoff(base, attempt, "job-1", 0, max)
		capped = capped || base<<(attempt-1) >= max
		if d <= 0 || d > max || capped && d < max*3/4 {
			t.Errorf("lagd retry %d: backoff %s, want in (0, %s], and at least %s once capped",
				attempt, d, max, max*3/4)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), false},
		{fs.ErrNotExist, false},
		{fs.ErrPermission, false},
		{errors.New("mystery"), false},
		{ErrWorkerPanic, true},
		{fmt.Errorf("%w: boom", ErrWorkerPanic), true},
		{ErrTransient, true},
		{fmt.Errorf("io hiccup: %w", ErrTransient), true},
		// What a distributed coordinator sees of a shard attempt.
		{fmt.Errorf("%w: %w", ErrTransient, &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}), true},
		{fmt.Errorf("%w: %w", ErrTransient, &net.OpError{Op: "read", Err: syscall.ECONNRESET}), true},
		{fmt.Errorf("%w: submit: 500 Internal Server Error", ErrTransient), true},
		{fmt.Errorf("%w: polling job-1: 404 Not Found", ErrTransient), true},
		{fmt.Errorf("%w: %w", ErrTransient, ErrShed), true},
		{fmt.Errorf("%w: %w", ErrTransient, ErrDraining), true},
		{fmt.Errorf("%w: state of job-1: %w", ErrTransient, ErrBadShardState), true},
		// An attempt past its deadline is transient only with the
		// context error flattened: wrapped, it reads as permanent.
		{fmt.Errorf("%w: attempt ran past 1s: %v", ErrTransient, context.DeadlineExceeded), true},
		{fmt.Errorf("%w: %w", ErrTransient, context.DeadlineExceeded), false},
		// A job spec refused with 400, and a job failed permanently.
		{errors.New("dist: shard fails permanently: refused the job spec"), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
