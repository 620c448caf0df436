package checkpoint_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// readdress rewrites app's payload in the store at dir with damage,
// then re-addresses it (new digest, file name, and manifest entry) so
// that the digest check passes and only the decode stands between the
// damage and the caller.
func readdress(t *testing.T, dir, app string, damage func([]byte) []byte) {
	t.Helper()
	mp := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	var m checkpoint.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	entry := m.Apps[app]
	old := filepath.Join(dir, "apps", entry.Digest+".fold")
	data, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	data = damage(data)
	sum := sha256.Sum256(data)
	entry.Digest = hex.EncodeToString(sum[:])
	if err := os.WriteFile(filepath.Join(dir, "apps", entry.Digest+".fold"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(old)
	m.Apps[app] = entry
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHostilePayloadIsMiss: a payload whose digest is right but which
// is not the fold a study of this configuration saves for the app — it
// fails to decode, or it is a fold at another threshold, of another
// app, or of another session count — is a counted miss, never a hit:
// exactly one checkpoint error, and the app re-runs to the rows of a
// fresh run.
func TestHostilePayloadIsMiss(t *testing.T) {
	ctx := context.Background()
	p := apps.CrosswordSage()
	cfg := report.StudyConfig{Apps: []*sim.Profile{p}, SessionsPerApp: 2, Seed: 7, SessionSeconds: 20, Sequential: true}
	fresh, err := report.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// foldOf is what a study under cfg, changed by edit, folds for q.
	foldOf := func(q *sim.Profile, edit func(*report.StudyConfig)) *engine.AppFold {
		c := cfg
		edit(&c)
		f, err := report.StudyFold(ctx, c, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	same := func(*report.StudyConfig) {}

	errs := obs.NewCounter("checkpoint_errors_total", "")
	hits := obs.NewCounter("checkpoint_hits_total", "")
	for _, tc := range []struct {
		name  string
		store func(t *testing.T, st *checkpoint.Store)
	}{
		{"truncated payload", func(t *testing.T, st *checkpoint.Store) {
			if err := st.Save(p.Name, foldOf(p, same)); err != nil {
				t.Fatal(err)
			}
			readdress(t, st.Dir(), p.Name, func(b []byte) []byte { return b[:len(b)/2] })
		}},
		{"other threshold", func(t *testing.T, st *checkpoint.Store) {
			if err := st.Save(p.Name, foldOf(p, func(c *report.StudyConfig) { c.Threshold = trace.DefaultPerceptibleThreshold / 2 })); err != nil {
				t.Fatal(err)
			}
		}},
		{"other app", func(t *testing.T, st *checkpoint.Store) {
			if err := st.Save(p.Name, foldOf(apps.GanttProject(), same)); err != nil {
				t.Fatal(err)
			}
		}},
		{"other session count", func(t *testing.T, st *checkpoint.Store) {
			if err := st.Save(p.Name, foldOf(p, func(c *report.StudyConfig) { c.SessionsPerApp = 1 })); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			dir := t.TempDir()
			st, err := checkpoint.Open(dir, cfg.Hash())
			if err != nil {
				t.Fatal(err)
			}
			tc.store(t, st)
			if st, err = checkpoint.Open(dir, cfg.Hash()); err != nil {
				t.Fatal(err)
			}
			c.Checkpoint = st
			e0, h0 := errs.Value(), hits.Value()
			res, err := report.RunStudy(c)
			if err != nil {
				t.Fatal(err)
			}
			if e, h := errs.Value()-e0, hits.Value()-h0; e != 1 || h != 0 {
				t.Errorf("checkpoint errors/hits delta = %d/%d, want 1/0", e, h)
			}
			if !reflect.DeepEqual(res.Rows, fresh.Rows) {
				t.Errorf("re-run rows differ from a fresh run:\n%s\nwant:\n%s", report.FormatAll(res), report.FormatAll(fresh))
			}
		})
	}
}
