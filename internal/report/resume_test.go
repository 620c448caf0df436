package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

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
	if len(res.Apps) != 1 || res.Apps[0].Suite.App != "CrosswordSage" {
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
	if len(res.Apps) != 1 || res.Apps[0].Suite.App != "CrosswordSage" {
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
	suite := fresh.Apps[0].Suite
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
	if _, ok := st.Load(suite.App); ok {
		t.Fatal("Load hit through a version-1 manifest")
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
