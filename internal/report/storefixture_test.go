package report

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStoreV5Fixture: testdata/store-v5 is a version-5
// checkpoint store of CrosswordSage (1 session, seed 42, 10 s, at a
// 150 ms threshold, so a threshold the wire loses would show) written
// while the pattern builder's wire form still carried the ablation
// switches and a pattern could be asked about any threshold. Its fold
// decodes and finishes equal to a fresh one, and a study over the
// store resumes from it to the report a fresh study renders.
func TestCheckpointStoreV5Fixture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	copyTree(t, filepath.Join("testdata", "store-v5"), dir)
	p := apps.CrosswordSage()
	cfg := StudyConfig{Apps: []*sim.Profile{p}, SessionsPerApp: 1, Seed: 42, SessionSeconds: 10,
		Threshold: 150 * trace.Millisecond, Sequential: true}

	ctx := context.Background()
	store, err := checkpoint.Open(dir, cfg.Hash())
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Load(p.Name, func(f *engine.AppFold) error { return cfg.CheckFold(p.Name, f) })
	if !ok {
		t.Fatal("the version-5 store missed")
	}
	fresh, err := StudyFold(ctx, cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := engine.Finish(ctx, p.Name, []*engine.AppFold{stored}), engine.Finish(ctx, p.Name, []*engine.AppFold{fresh}); !reflect.DeepEqual(got, want) {
		t.Error("the stored fold finishes differently from a fresh one")
	}

	want, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := obs.NewCounter("checkpoint_hits_total", "")
	before := hits.Value()
	cfg.CheckpointDir = dir
	got, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := hits.Value() - before; n != 1 {
		t.Errorf("checkpoint_hits_total delta = %d, want 1", n)
	}
	if FormatAll(got) != FormatAll(want) || FormatHTML(got) != FormatHTML(want) {
		t.Error("the study resumed from the version-5 store renders differently")
	}
}
