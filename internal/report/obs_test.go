package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/sim"
)

// TestRunStudyInstrumentedIdentical: tracing plus progress reporting
// enabled, sequential vs parallel, must still produce identical rows —
// the acceptance guard that observability never perturbs results.
func TestRunStudyInstrumentedIdentical(t *testing.T) {
	run := func(sequential bool, tr *obs.Trace, progress *strings.Builder) *StudyResult {
		cfg := StudyConfig{
			Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
			SessionsPerApp: 2,
			Seed:           99,
			SessionSeconds: 30,
			Sequential:     sequential,
		}
		if progress != nil {
			cfg.Progress = progress
		}
		res, err := RunStudyContext(obs.WithTrace(context.Background(), tr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(true, nil, nil)
	var progress strings.Builder
	traced := run(false, obs.NewTrace(), &progress)

	if len(plain.Rows) != len(traced.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(plain.Rows), len(traced.Rows))
	}
	for i := range plain.Rows {
		if plain.Rows[i] != traced.Rows[i] {
			t.Errorf("row %d differs under instrumentation:\nplain  %+v\ntraced %+v",
				i, plain.Rows[i], traced.Rows[i])
		}
	}

	// Progress: one line per session plus one per app, each with an
	// elapsed stamp; all but the final line carry an ETA.
	lines := strings.Split(strings.TrimRight(progress.String(), "\n"), "\n")
	wantLines := 2 * (2 + 1) // 2 apps × (2 sessions + 1 analysis)
	if len(lines) != wantLines {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), wantLines, progress.String())
	}
	for i, line := range lines {
		if !strings.Contains(line, "elapsed") {
			t.Errorf("progress line %d missing elapsed: %q", i, line)
		}
		if i < len(lines)-1 && !strings.Contains(line, "eta") {
			t.Errorf("progress line %d missing eta: %q", i, line)
		}
	}
	if !strings.Contains(progress.String(), "analyze CrosswordSage") {
		t.Errorf("progress missing analyze step:\n%s", progress.String())
	}
}

// TestSelfProfileDoesNotPerturb: running the study with self-profiling
// on (a trace on the context, then encoding the spans as a LiLa v2
// self-trace) must leave the formatted analysis output byte-identical
// to a plain run, and the self-trace encoding itself must be
// deterministic for one recorded trace.
func TestSelfProfileDoesNotPerturb(t *testing.T) {
	run := func(tr *obs.Trace) *StudyResult {
		ctx := context.Background()
		if tr != nil {
			ctx = obs.WithTrace(ctx, tr)
		}
		res, err := RunStudyContext(ctx, StudyConfig{
			Apps:           []*sim.Profile{apps.CrosswordSage(), apps.GanttProject()},
			SessionsPerApp: 2,
			Seed:           99,
			SessionSeconds: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	tr := obs.NewTrace()
	profiled := run(tr)

	if a, b := FormatAll(plain), FormatAll(profiled); a != b {
		t.Error("formatted study output differs with self-profiling on")
	}

	enc1, err := selftrace.Encode(tr, selftrace.Options{App: "lagreport"})
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := selftrace.Encode(tr, selftrace.Options{App: "lagreport"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Error("self-trace encoding is not deterministic for one trace")
	}

	// The formatted output must also be unaffected by *when* the
	// encoding happens — Encode only reads the finished spans.
	if a, b := FormatAll(profiled), FormatAll(plain); a != b {
		t.Error("encoding the self-trace perturbed the study result")
	}
}

// TestStudySpans checks the study trace shape: a study phase span,
// one app span per application, simulate spans per session, and the
// engine spans nested beneath each app. Each episode is classified in
// its session's simulate span, so the engine phase only merges and
// derives.
func TestStudySpans(t *testing.T) {
	tr := obs.NewTrace()
	_, err := RunStudyContext(obs.WithTrace(context.Background(), tr), StudyConfig{
		Apps:           []*sim.Profile{apps.CrosswordSage()},
		SessionsPerApp: 2,
		Seed:           5,
		SessionSeconds: 20,
		Sequential:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range tr.Summary() {
		counts[r.Path] += r.Count
	}
	want := map[string]int{
		"study":                                   1,
		"study/app:CrosswordSage":                 1,
		"study/app:CrosswordSage/simulate":        2,
		"study/app:CrosswordSage/engine":          1,
		"study/app:CrosswordSage/engine/classify": 0,
		"study/app:CrosswordSage/engine/merge":    1,
		"study/app:CrosswordSage/engine/overview": 1,
	}
	for path, n := range want {
		if counts[path] != n {
			t.Errorf("span %q count = %d, want %d (all: %v)", path, counts[path], n, counts)
		}
	}
}
