package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// TestJournalV3Fixture: testdata/journal-v3 is a version-3 journal
// written while the pattern builder's wire form still carried the
// ablation switches: a snapshot with the first two 2 s windows of a
// CrosswordSage session (seed 42, 10 s) at a 150 ms threshold, and a
// WAL with the other three and the app tally. It recovers to the
// tables a fresh fold of that session makes.
func TestJournalV3Fixture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "journal-v3")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, got, err := OpenJournal(dir, obs.DiscardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	s, err := sim.Run(sim.Config{Profile: apps.CrosswordSage(), Seed: 42, SessionSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := NewTables()
	FoldSessions(want, "CrosswordSage", []*trace.Session{s}, 2*trace.Second, 150*trace.Millisecond)
	if len(got.Windows) != 5 || !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %d windows that differ from a fresh fold's %d", len(got.Windows), len(want.Windows))
	}
}
