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
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
)

// capture runs cmd (runStats or runStream) over paths at the given
// -jobs and returns its stdout and error.
func capture(t *testing.T, cmd func([]string) error, jobs int, paths []string) (string, error) {
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
	err = cmd(paths)
	os.Stdout = stdout
	w.Close()
	return string(<-out), err
}

// captureStats runs `stats` over paths at the given -jobs and returns
// its stdout.
func captureStats(t *testing.T, jobs int, paths []string) string {
	t.Helper()
	got, err := capture(t, runStats, jobs, paths)
	if err != nil {
		t.Fatalf("stats at -jobs %d: %v", jobs, err)
	}
	return got
}

// writeV2Traces writes one multi-block v2 trace per app and returns
// their paths.
func writeV2Traces(t *testing.T, names ...string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, app := range names {
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
	return paths
}

// TestStatsParallelFolds runs the release-mode stats pool over two
// multi-block v2 traces with file and block workers at once (run it
// under -race), and checks the output matches the sequential run.
func TestStatsParallelFolds(t *testing.T) {
	paths := writeV2Traces(t, "Jmol", "CrosswordSage")
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

// TestFoldPanicIsFileError: a panic in one file's per-episode analysis
// fails that file, not the process. stats and stream return it as an
// error (exit 1) at any -jobs; under -salvage the file is skipped
// (exit 3) and the others still print.
func TestFoldPanicIsFileError(t *testing.T) {
	paths := writeV2Traces(t, "Jmol", "CrosswordSage")
	analyzeEpisode = func(a *stream.Analyzer, s *trace.Session, e *trace.Episode) {
		if s.App == "Jmol" && e.Index == 3 {
			panic("injected fault")
		}
		a.Episode(s, e)
	}
	defer func() { analyzeEpisode = (*stream.Analyzer).Episode }()

	for _, cmd := range []struct {
		name string
		run  func([]string) error
	}{{"stats", runStats}, {"stream", runStream}} {
		for _, jobs := range []int{1, 8} {
			_, err := capture(t, cmd.run, jobs, paths)
			if err == nil || !strings.Contains(err.Error(), "Jmol.lila: panic: injected fault") {
				t.Errorf("%s at -jobs %d: error %v, want the Jmol file's contained panic", cmd.name, jobs, err)
			}
		}
		salvageMode, lostInputs = true, 0
		out, err := capture(t, cmd.run, 2, paths)
		salvageMode = false
		if err != nil || lostInputs != 1 {
			t.Errorf("%s -salvage: error %v, %d inputs lost, want nil and 1", cmd.name, err, lostInputs)
		}
		if strings.Contains(out, "Jmol/0") || !strings.Contains(out, "CrosswordSage/0") {
			t.Errorf("%s -salvage printed:\n%s\nwant CrosswordSage only", cmd.name, out)
		}
		lostInputs = 0
	}
}
