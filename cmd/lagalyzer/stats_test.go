package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
)

// captureStats runs `stats` over paths at the given -jobs and returns
// its stdout.
func captureStats(t *testing.T, jobs int, paths []string) string {
	t.Helper()
	loadJobs = jobs
	defer func() { loadJobs = 0 }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // a pipe read fails only once w is closed
		out <- b
	}()
	err = runStats(paths)
	os.Stdout = stdout
	w.Close()
	got := <-out
	if err != nil {
		t.Fatalf("stats at -jobs %d: %v", jobs, err)
	}
	return string(got)
}

// TestStatsParallelFolds runs the release-mode stats pool over two
// multi-block v2 traces with file and block workers at once (run it
// under -race), and checks the output matches the sequential run.
func TestStatsParallelFolds(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, app := range []string{"Jmol", "CrosswordSage"} {
		profile, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 4, SessionSeconds: 20})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		wr, err := lila.NewV2WriterOptions(&buf, h, lila.V2WriterOptions{BlockRecords: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := wr.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, app+".lila")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	want := captureStats(t, 1, paths)
	if !strings.HasPrefix(want, "Jmol/0: ") || !strings.Contains(want, "\nCrosswordSage/0: ") {
		t.Fatalf("stats output:\n%s", want)
	}
	for _, jobs := range []int{2, 8} {
		if got := captureStats(t, jobs, paths); got != want {
			t.Errorf("-jobs %d:\n%s\nwant (-jobs 1):\n%s", jobs, got, want)
		}
	}
}
