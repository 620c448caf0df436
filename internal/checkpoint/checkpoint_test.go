package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// testFold folds a small deterministic suite as a study does: each
// session into its own fold, merged in session order.
func testFold(t *testing.T) *engine.AppFold {
	t.Helper()
	var f *engine.AppFold
	for i := 0; i < 2; i++ {
		s, err := sim.Run(sim.Config{Profile: apps.CrosswordSage(), SessionID: i, Seed: 7, SessionSeconds: 20})
		if err != nil {
			t.Fatal(err)
		}
		g := engine.NewAppFold(trace.DefaultPerceptibleThreshold)
		for _, e := range s.Episodes {
			g.Episode(s, e)
		}
		g.CloseSession(s)
		if f == nil {
			f = g
		} else {
			f.Merge(g)
		}
	}
	return f
}

// save persists f as a study does.
func save(st *Store, f *engine.AppFold) error { return st.Save(f.App(), f) }

// load is what a resume does with app's payload: Load it, accepting
// only a fold of app. It returns the fold, or (nil, false) on a miss.
func load(st *Store, app string) (*engine.AppFold, bool) {
	return st.Load(app, func(f *engine.AppFold) error {
		if f.App() != app {
			return fmt.Errorf("fold of %q", f.App())
		}
		return nil
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	app := fold.App()

	st, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(st, app); ok {
		t.Fatal("load hit on an empty store")
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	// A reopened store (the resume path) must reproduce the fold
	// exactly: it finishes to a result deeply equal to the original's,
	// down to the pattern tallies and Figure 2's episode.
	st2, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := load(st2, app)
	if !ok {
		t.Fatal("load missed after Save + reopen")
	}
	if got.Sessions() != 2 {
		t.Fatalf("decoded fold has %d sessions, want 2", got.Sessions())
	}
	ctx := context.Background()
	want := engine.Finish(ctx, app, []*engine.AppFold{testFold(t)})
	if !reflect.DeepEqual(engine.Finish(ctx, app, []*engine.AppFold{got}), want) {
		t.Error("fold finishes differently after the round trip")
	}
	if apps := st2.Apps(); len(apps) != 1 || apps[0] != app {
		t.Errorf("Apps() = %v, want [%s]", apps, app)
	}
	if _, ok := st2.Load(app, func(*engine.AppFold) error { return errors.New("rejected") }); ok {
		t.Error("load hit on a fold its check rejects")
	}
}

func TestConfigHashMismatchInvalidatesStore(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "hash-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	// Same directory, different configuration: the store must start
	// empty and drop the stale payloads from disk.
	st2, err := Open(dir, "hash-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(st2, fold.App()); ok {
		t.Fatal("load hit across a config-hash change")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("stale payloads not cleaned: %d files remain", len(entries))
	}
}

func TestCorruptPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	// Flip bits in the payload on disk: the digest check must turn the
	// load into a miss, never a wrong result or a crash.
	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one payload file, got %d (err %v)", len(entries), err)
	}
	path := filepath.Join(dir, "apps", entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faultinject.FlipBits(data, 3, 8, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(st2, fold.App()); ok {
		t.Fatal("load hit on a corrupted payload")
	}
}

func TestTruncatedManifestResets(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn manifest (should be impossible given the atomic
	// writes, but belt and suspenders for foreign tools): Open must
	// degrade to an empty store, not fail.
	mp := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, faultinject.TruncateFrac(data, 0.5), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatalf("Open failed on a torn manifest: %v", err)
	}
	if _, ok := load(st2, fold.App()); ok {
		t.Fatal("load hit through a torn manifest")
	}
}

func TestOrphanPayloadGarbageCollected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	// A crash between the payload write and the manifest update leaves
	// an unreferenced payload; the next Open collects it.
	orphan := filepath.Join(dir, "apps", "deadbeef.gob")
	if err := os.WriteFile(orphan, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "h"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan payload survived garbage collection (stat err %v)", err)
	}
}

func TestFaultWrappedReaders(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	// A stalling, short-read source still delivers the exact bytes —
	// loads must succeed (slowly), proving the read path has no framing
	// assumptions.
	slow, err := OpenOptions(dir, "h", Options{
		WrapReader: func(r io.Reader) io.Reader {
			return faultinject.NewStallReader(faultinject.NewShortReader(r, 11), 512, time.Microsecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(slow, fold.App()); !ok {
		t.Fatal("load missed under stall+short-read injection")
	}

	// A source that dies mid-transfer must degrade to a miss.
	cut, err := OpenOptions(dir, "h", Options{
		WrapReader: func(r io.Reader) io.Reader {
			return faultinject.NewTruncatingReader(r, 100)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(cut, fold.App()); ok {
		t.Fatal("load hit through a truncated transfer")
	}
}

// TestTruncatedPayloadIsMiss: a payload cut short on disk (torn
// write, full filesystem) must degrade to a re-run miss — never a
// partial fold or a crash.
func TestTruncatedPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(filepath.Join(dir, "apps"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one payload file, got %d (err %v)", len(entries), err)
	}
	path := filepath.Join(dir, "apps", entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faultinject.TruncateFrac(data, 0.7), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := load(st2, fold.App()); ok {
		t.Fatal("load hit on a truncated payload")
	}
	// The store stays usable: a fresh Save repairs the entry.
	if err := save(st2, fold); err != nil {
		t.Fatal(err)
	}
	if _, ok := load(st2, fold.App()); !ok {
		t.Fatal("re-saved entry does not load")
	}
}

// TestCorruptManifestResets: seeded bit flips in the manifest must
// degrade Open to an empty store (re-run everything), never to
// loading under a wrong configuration or crashing.
func TestCorruptManifestResets(t *testing.T) {
	dir := t.TempDir()
	fold := testFold(t)
	st, err := Open(dir, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := save(st, fold); err != nil {
		t.Fatal(err)
	}

	mp := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, faultinject.FlipBits(data, 19, 12, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, "h")
	if err != nil {
		t.Fatalf("Open failed on a bit-flipped manifest: %v", err)
	}
	if _, ok := load(st2, fold.App()); ok {
		t.Fatal("load hit through a bit-flipped manifest")
	}
}
