package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// simulatedSuite simulates p's sessions under cfg, held, as sim.Run
// builds them.
func simulatedSuite(t *testing.T, cfg StudyConfig, p *sim.Profile) *trace.Suite {
	t.Helper()
	suite := &trace.Suite{App: p.Name}
	for id := 0; id < cfg.sessions(); id++ {
		s, err := sim.Run(sim.Config{Profile: p, SessionID: id, Seed: cfg.Seed, SessionSeconds: cfg.SessionSeconds})
		if err != nil {
			t.Fatal(err)
		}
		suite.Sessions = append(suite.Sessions, s)
	}
	return suite
}

func resumeTestConfig(dir string) StudyConfig {
	return StudyConfig{
		Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
		SessionsPerApp: 2,
		Seed:           42,
		SessionSeconds: 20,
		Sequential:     true,
		CheckpointDir:  dir,
	}
}

// TestCheckpointResumeByteIdentical is the core crash-safety
// guarantee at the library level: a study resumed from checkpoints
// renders byte-identical text and HTML reports to the run that wrote
// them, while skipping the simulation work (observed via the
// checkpoint_hits_total counter).
func TestCheckpointResumeByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	hits := obs.NewCounter("checkpoint_hits_total", "")

	first, err := RunStudy(resumeTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := hits.Value()
	second, err := RunStudy(resumeTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Value() - before; got != 2 {
		t.Errorf("checkpoint_hits_total delta = %d, want 2 (one per app)", got)
	}

	if a, b := FormatAll(first), FormatAll(second); a != b {
		t.Errorf("text report differs after resume:\n--- fresh ---\n%s\n--- resumed ---\n%s", a, b)
	}
	if a, b := FormatHTML(first), FormatHTML(second); a != b {
		t.Error("HTML report differs after resume")
	}
}

// TestCheckpointResumeParallelMatchesSequential: resuming with a
// parallel pool from checkpoints written by a sequential run must not
// perturb results (the engine's determinism extends through the store).
func TestCheckpointResumeParallelMatchesSequential(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	first, err := RunStudy(resumeTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeTestConfig(dir)
	cfg.Sequential = false
	second, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatAll(first), FormatAll(second); a != b {
		t.Error("parallel resume differs from sequential original")
	}
}

// TestTeedCheckpointResume: the study checkpoints each app as the
// frame of the record streams the simulator teed while building its
// sessions. The payloads are byte-identical to the frames AppendSuite
// encodes from the built suites, so stores written either way hit, and
// a study resumed over the teed store renders the fresh run's reports
// byte for byte.
func TestTeedCheckpointResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "teed")
	cfg := resumeTestConfig(dir)
	fresh, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	savedDir := filepath.Join(t.TempDir(), "saved")
	saved, err := checkpoint.Open(savedDir, cfg.Hash())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cfg.Apps {
		suite := simulatedSuite(t, cfg, p)
		frame, err := treebuild.AppendSuite(nil, suite)
		if err != nil {
			t.Fatal(err)
		}
		if err := saved.SaveFrame(p.Name, len(suite.Sessions), frame); err != nil {
			t.Fatal(err)
		}
	}
	payloads := func(dir string) []string {
		entries, err := os.ReadDir(filepath.Join(dir, "apps"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	if a, b := payloads(dir), payloads(savedDir); len(a) != 2 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("teed payloads %v, saved payloads %v", a, b)
	}

	hits := obs.NewCounter("checkpoint_hits_total", "")
	before := hits.Value()
	resumed, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Value() - before; got != 2 {
		t.Errorf("checkpoint_hits_total delta = %d, want 2", got)
	}
	if a, b := FormatAll(fresh), FormatAll(resumed); a != b {
		t.Error("text report differs after resuming over the teed store")
	}
	if a, b := FormatExperimentsMarkdown(fresh), FormatExperimentsMarkdown(resumed); a != b {
		t.Error("experiments.md differs after resuming over the teed store")
	}
	if a, b := FormatHTML(fresh), FormatHTML(resumed); a != b {
		t.Error("HTML report differs after resuming over the teed store")
	}
}

// TestCheckpointCorruptEntryReruns: damaging one checkpointed payload
// turns that app into a miss — it is re-simulated, and the final
// output is still identical. A broken checkpoint can cost time, never
// correctness.
func TestCheckpointCorruptEntryReruns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	first, err := RunStudy(resumeTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}

	appsDir := filepath.Join(dir, "apps")
	entries, err := os.ReadDir(appsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 checkpoint payloads, got %d", len(entries))
	}
	path := filepath.Join(appsDir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faultinject.FlipBits(data, 9, 16, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := RunStudy(resumeTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatAll(first), FormatAll(second); a != b {
		t.Error("report differs after re-running a corrupted checkpoint entry")
	}
}

// sleepyWriter is a progress sink that blocks on lines mentioning a
// chosen app — a deterministic way to make exactly one app exceed its
// AppTimeout without wall-clock races: progress lines are emitted
// between sessions, before the next session's context check.
type sleepyWriter struct {
	mu    sync.Mutex
	match string
	delay time.Duration
	out   strings.Builder
}

func (w *sleepyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if strings.Contains(string(p), w.match) {
		time.Sleep(w.delay)
	}
	return w.out.Write(p)
}

// TestAppTimeoutRecordsTimedOutReason: an app exceeding
// StudyConfig.AppTimeout must land in the health ledger with the
// distinct LossTimedOut reason (not a generic context error), while
// the rest of the study completes normally.
func TestAppTimeoutRecordsTimedOutReason(t *testing.T) {
	slow := &sleepyWriter{match: "sim GanttProject", delay: time.Second}
	res, err := RunStudy(StudyConfig{
		Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
		SessionsPerApp: 2,
		Seed:           1,
		SessionSeconds: 20,
		Sequential:     true,
		Progress:       slow,
		AppTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 1 || res.Apps[0].App != "CrosswordSage" {
		t.Fatalf("surviving apps = %d, want only CrosswordSage", len(res.Apps))
	}
	if len(res.Health.Apps) != 1 {
		t.Fatalf("health apps = %+v, want exactly one", res.Health.Apps)
	}
	ah := res.Health.Apps[0]
	if ah.App != "GanttProject" || ah.Reason != LossTimedOut {
		t.Errorf("health = %+v, want GanttProject with reason %q", ah, LossTimedOut)
	}
	if !res.Partial() {
		t.Error("Partial() = false after losing an app to timeout")
	}
	if health := FormatHealth(res.Health); !strings.Contains(health, "[timed_out]") {
		t.Errorf("FormatHealth missing [timed_out] marker:\n%s", health)
	}
}

// cancelOnWriter cancels a context when a progress line matching a
// substring appears — used to cancel the study deterministically after
// the first app completes.
type cancelOnWriter struct {
	mu     sync.Mutex
	match  string
	cancel context.CancelFunc
}

func (w *cancelOnWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if strings.Contains(string(p), w.match) {
		w.cancel()
	}
	return len(p), nil
}

// TestCancelReturnsPartialResult: cancellation mid-study (the signal
// path) must return both the partial result — survivors plus a health
// ledger marking abandoned apps LossCanceled — and the context error,
// so the CLIs can flush partial output before exiting with code 3.
func TestCancelReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := RunStudyContext(ctx, StudyConfig{
		Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
		SessionsPerApp: 2,
		Seed:           1,
		SessionSeconds: 20,
		Sequential:     true,
		Progress:       &cancelOnWriter{match: "analyze CrosswordSage", cancel: cancel},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation error")
	}
	if len(res.Apps) != 1 || res.Apps[0].App != "CrosswordSage" {
		t.Fatalf("partial result apps = %d, want only CrosswordSage", len(res.Apps))
	}
	var canceled []string
	for _, ah := range res.Health.Apps {
		if ah.Reason == LossCanceled {
			canceled = append(canceled, ah.App)
		}
	}
	if len(canceled) != 1 || canceled[0] != "GanttProject" {
		t.Errorf("canceled apps = %v, want [GanttProject] (health %+v)", canceled, res.Health.Apps)
	}
	// The partial result still carries the mean row for its survivors.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want survivor + mean", len(res.Rows))
	}
}

// TestAnalyzeSuitesContextCancelMarksRemaining: the trace-directory
// analysis path records apps skipped by cancellation in the health
// ledger instead of silently dropping them.
func TestAnalyzeSuitesContextCancelMarksRemaining(t *testing.T) {
	p := apps.CrosswordSage()
	s, err := sim.Run(sim.Config{Profile: p, SessionID: 0, Seed: 3, SessionSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	suites := []*trace.Suite{{App: p.Name, Sessions: []*trace.Session{s}}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := AnalyzeSuitesContext(ctx, suites, 0, nil)
	if len(res.Apps) != 0 {
		t.Fatalf("apps analyzed under a canceled context: %d", len(res.Apps))
	}
	if len(res.Health.Apps) != 1 || res.Health.Apps[0].Reason != LossCanceled {
		t.Errorf("health = %+v, want one %q entry", res.Health.Apps, LossCanceled)
	}
}

// TestCheckpointVersion1StoreReruns: a store left by the gob payload
// encoding (manifest version 1, apps/<digest>.gob) is stale as a
// whole. Open removes its payload, the app misses, and the study
// re-runs it with output identical to a fresh run.
func TestCheckpointVersion1StoreReruns(t *testing.T) {
	fresh, err := RunStudy(resumeTestConfig(""))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := resumeTestConfig(dir)
	suite := simulatedSuite(t, cfg, cfg.Apps[0])
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(struct {
		App      string
		Sessions []*trace.Session
	}{suite.App, suite.Sessions}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	digest := hex.EncodeToString(sum[:])
	gobPath := filepath.Join(dir, "apps", digest+".gob")
	if err := os.MkdirAll(filepath.Dir(gobPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gobPath, payload.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := fmt.Sprintf(`{"version": 1, "config_hash": %q, "apps": {%q: {"digest": %q, "sessions": %d}}}`,
		cfg.Hash(), suite.App, digest, len(suite.Sessions))
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := checkpoint.Open(dir, cfg.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gobPath); !os.IsNotExist(err) {
		t.Errorf("version-1 payload survived Open (stat err %v)", err)
	}
	if _, ok := st.LoadFrame(suite.App); ok {
		t.Fatal("LoadFrame hit through a version-1 manifest")
	}

	hits := obs.NewCounter("checkpoint_hits_total", "")
	saves := obs.NewCounter("checkpoint_saves_total", "")
	h0, s0 := hits.Value(), saves.Value()
	cfg.Checkpoint = st
	resumed, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, s := hits.Value()-h0, saves.Value()-s0; h != 0 || s != 2 {
		t.Errorf("checkpoint hits/saves delta = %d/%d, want 0/2 (both apps re-run)", h, s)
	}
	if a, b := FormatAll(fresh), FormatAll(resumed); a != b {
		t.Error("report differs after re-running over a version-1 store")
	}
}

// checkpointedFrame runs resumeTestConfig into a fresh store and
// returns the config, the store, and app's stored frame.
func checkpointedFrame(t *testing.T, app string) (StudyConfig, *checkpoint.Store, []byte) {
	t.Helper()
	cfg := resumeTestConfig(filepath.Join(t.TempDir(), "ckpt"))
	if _, err := RunStudy(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(cfg.CheckpointDir, cfg.Hash())
	if err != nil {
		t.Fatal(err)
	}
	frame, ok := st.LoadFrame(app)
	if !ok {
		t.Fatal("no checkpoint of " + app)
	}
	return cfg, st, frame
}

// TestCheckpointDamagedLaterSessionReruns: a frame whose digest
// matches but whose second session is damaged fails as a whole after
// its first session has folded. That fold is dropped, the app re-runs
// from fresh folds, and the output is the fresh run's byte for byte.
func TestCheckpointDamagedLaterSessionReruns(t *testing.T) {
	const app = "GanttProject"
	cfg, st, frame := checkpointedFrame(t, app)
	fresh, err := RunStudy(resumeTestConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	_, traces, _, err := treebuild.SplitSuite(frame)
	if err != nil || len(traces) != 2 {
		t.Fatalf("frame: %d sessions, %v", len(traces), err)
	}
	traces[1] = faultinject.FlipBits(traces[1], 5, 4, len(traces[1])/2, 0)
	if _, err := treebuild.DecodeSession(traces[1], treebuild.Options{}); err == nil {
		t.Fatal("damaged session still decodes")
	}
	damaged := treebuild.AppendTraces(nil, app, traces)
	if err := st.SaveFrame(app, 2, damaged); err != nil {
		t.Fatal(err)
	}

	folds := make([]*engine.AppFold, 2)
	if err := foldFrame(context.Background(), st, damaged, app, folds, cfg.threshold()); err == nil || folds[0] == nil || folds[0].App() != app {
		t.Fatalf("damaged frame: error %v with session 0 folded to %v, want an error after session 0 closed", err, folds[0])
	}

	hits := obs.NewCounter("checkpoint_hits_total", "")
	saves := obs.NewCounter("checkpoint_saves_total", "")
	h0, s0 := hits.Value(), saves.Value()
	cfg.Checkpoint = st
	resumed, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, s := hits.Value()-h0, saves.Value()-s0; h != 1 || s != 1 {
		t.Errorf("checkpoint hits/saves delta = %d/%d, want 1/1 (%s re-run)", h, s, app)
	}
	if a, b := FormatAll(fresh), FormatAll(resumed); a != b {
		t.Errorf("report differs after re-running a damaged later session:\n--- fresh ---\n%s\n--- resumed ---\n%s", a, b)
	}
	if a, b := FormatHTML(fresh), FormatHTML(resumed); a != b {
		t.Error("HTML report differs after re-running a damaged later session")
	}
}

// TestResumeFoldPanicContained: a panic while a checkpoint hit folds
// fails that frame with an attributed error, counted with the other
// contained panics, instead of taking the study down; RunStudyContext
// then re-runs the app as on any failed hit.
func TestResumeFoldPanicContained(t *testing.T) {
	_, st, frame := checkpointedFrame(t, "CrosswordSage")
	panics := obs.NewCounter("engine_panics_recovered_total", "")
	before := panics.Value()
	foldEpisode = func(f *engine.AppFold, s *trace.Session, e *trace.Episode) {
		if s.ID == 1 {
			panic("injected fault")
		}
		f.Episode(s, e)
	}
	defer func() { foldEpisode = (*engine.AppFold).Episode }()
	err := foldFrame(context.Background(), st, frame, "CrosswordSage", make([]*engine.AppFold, 2), 0)
	if err == nil || !strings.Contains(err.Error(), "panic in frame of CrosswordSage: injected fault") {
		t.Errorf("error %v, want the contained panic", err)
	}
	if got := panics.Value() - before; got != 1 {
		t.Errorf("engine_panics_recovered_total delta = %d, want 1", got)
	}
}

// TestResumeCancelBetweenSessions: a context canceled while a
// checkpoint hit folds its first session stops the hit before the
// second session decodes.
func TestResumeCancelBetweenSessions(t *testing.T) {
	_, st, frame := checkpointedFrame(t, "CrosswordSage")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	foldEpisode = func(f *engine.AppFold, s *trace.Session, e *trace.Episode) {
		cancel()
		f.Episode(s, e)
	}
	defer func() { foldEpisode = (*engine.AppFold).Episode }()
	folds := make([]*engine.AppFold, 2)
	err := foldFrame(ctx, st, frame, "CrosswordSage", folds, 0)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want context.Canceled", err)
	}
	if folds[0] == nil || folds[1] != nil {
		t.Errorf("sessions started = %v, want only the first", folds)
	}
}
