package selftrace

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/treebuild"
)

// record a realistic span forest: a study root with a measured phase,
// and overlapping per-worker spans that must be displaced to worker
// lanes.
func recordTrace(t *testing.T) *obs.Trace {
	t.Helper()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)

	ctx1, endStudy := obs.Span(ctx, "study")
	ctx2, endPhase := obs.PhaseSpan(ctx1, "load")
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, end := obs.Span(obs.WithWorker(ctx2, w), "decode")
			time.Sleep(12 * time.Millisecond)
			end()
		}(w)
	}
	wg.Wait()
	endPhase()
	_, endMerge := obs.Span(ctx1, "merge")
	time.Sleep(time.Millisecond)
	endMerge()
	endStudy()
	return tr
}

func TestBuildRoundTrip(t *testing.T) {
	tr := recordTrace(t)
	h, recs, err := Build(tr, Options{App: "lagreport", SessionID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if h.App != "lagreport" || h.SessionID != 7 || h.GUIThread != guiThread {
		t.Errorf("header = %+v", h)
	}
	s, diag, err := treebuild.BuildRecords(h, recs)
	if err != nil {
		t.Fatalf("treebuild rejected self-trace: %v", err)
	}
	if diag.SkippedRecords != 0 || diag.OrphanTopLevel != 0 {
		t.Errorf("diagnostics not clean: %+v", diag)
	}
	if len(s.Episodes) == 0 {
		t.Fatal("self-trace produced no episodes")
	}
	if len(s.Threads) < 2 {
		t.Errorf("threads = %d, want main + at least one worker (3 overlapping spans)", len(s.Threads))
	}
	if len(s.Ticks) == 0 {
		t.Error("no periodic samples in a >10ms session")
	}
	// The measured phase must surface as an alloc-delta sample.
	foundAlloc := false
	for _, tk := range s.Ticks {
		for _, th := range tk.Threads {
			if len(th.Stack) > 0 && th.Stack[0].Class == "lagalyzer.alloc" {
				foundAlloc = true
			}
		}
	}
	if !foundAlloc {
		t.Error("no alloc-delta sample for the measured phase")
	}
	// Displaced worker spans must root their own episodes off the GUI
	// thread (the multi-EDT mapping).
	offGUI := 0
	for _, e := range s.Episodes {
		if e.Thread != h.GUIThread {
			offGUI++
		}
	}
	if offGUI == 0 {
		t.Error("overlapping spans were not displaced to worker lanes")
	}
}

func TestEncodeIsValidV2(t *testing.T) {
	tr := recordTrace(t)
	data, err := Encode(tr, Options{App: "lagreport"})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := lila.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 decode of self-trace failed: %v", err)
	}
	s, _, err := treebuild.BuildOptions(lr, treebuild.Options{})
	if err != nil {
		t.Fatalf("v2 decode of self-trace failed: %v", err)
	}
	if len(s.Episodes) == 0 {
		t.Fatal("decoded self-trace has no episodes")
	}
	if s.GUIThread != guiThread {
		t.Errorf("GUI thread = %d, want %d", s.GUIThread, guiThread)
	}
}

func TestEmptyTraceStillValid(t *testing.T) {
	for _, tr := range []*obs.Trace{nil, obs.NewTrace()} {
		h, recs, err := Build(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if h.App != "lagalyzer" {
			t.Errorf("default app = %q", h.App)
		}
		s, _, err := treebuild.BuildRecords(h, recs)
		if err != nil {
			t.Fatalf("empty self-trace invalid: %v", err)
		}
		if len(s.Episodes) != 0 || len(s.Threads) != 1 {
			t.Errorf("episodes=%d threads=%d, want 0/1", len(s.Episodes), len(s.Threads))
		}
	}
}

func TestWriteFile(t *testing.T) {
	tr := recordTrace(t)
	path := t.TempDir() + "/self.lila"
	if err := WriteFile(path, tr, Options{App: "x"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lr, err := lila.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := treebuild.BuildOptions(lr, treebuild.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Episodes) == 0 {
		t.Error("file round trip lost episodes")
	}
}
