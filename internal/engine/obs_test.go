package engine

import (
	"context"
	"reflect"
	"testing"

	"lagalyzer/internal/obs"
)

// TestEngineInstrumentedDeterminism is the acceptance guard for the
// observability layer: with span tracing enabled, the result must be
// identical to an untraced run — instrumentation only observes, never
// influences.
func TestEngineInstrumentedDeterminism(t *testing.T) {
	suite := testSuite()
	plain := Analyze(suite, threshold)
	ctx := obs.WithTrace(context.Background(), obs.NewTrace())
	if r, err := AnalyzeContextErr(ctx, suite, threshold); err != nil || !reflect.DeepEqual(plain, r) {
		t.Fatalf("traced result differs from untraced (err %v)", err)
	}
}

// TestEngineSpans checks the shape of the recorded trace: the engine
// phase with its classify/merge/overview children, and an alloc delta
// on the phase span.
func TestEngineSpans(t *testing.T) {
	suite := testSuite()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := AnalyzeContextErr(ctx, suite, threshold); err != nil {
		t.Fatal(err)
	}

	rows := tr.Summary()
	byPath := map[string]int{}
	for _, r := range rows {
		byPath[r.Path] += r.Count
	}
	for _, want := range []string{"engine", "engine/classify", "engine/merge", "engine/overview"} {
		if byPath[want] != 1 {
			t.Errorf("span %q count = %d, want 1 (rows: %v)", want, byPath[want], byPath)
		}
	}
	for _, r := range rows {
		if r.Path == "engine" && r.AllocBytes == 0 {
			t.Error("engine phase span has no alloc delta")
		}
	}
}

// TestEngineMetrics checks the per-session counter flushes.
func TestEngineMetrics(t *testing.T) {
	suite := testSuite()
	epBefore := obs.NewCounter("engine_episodes_total", "").Value()
	Analyze(suite, threshold)
	total := 0
	for _, s := range suite.Sessions {
		total += len(s.Episodes)
	}
	if got := obs.NewCounter("engine_episodes_total", "").Value() - epBefore; got != int64(total) {
		t.Errorf("engine_episodes_total advanced by %d, want %d", got, total)
	}
}
