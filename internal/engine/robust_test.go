package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/trace"
)

// brokenSuite returns a suite whose single episode has a nil root —
// walking it panics, which the engine must contain.
func brokenSuite() *trace.Suite {
	s := &trace.Session{App: "broken", Start: 0, End: 1000}
	s.Episodes = []*trace.Episode{{Thread: 1, Root: nil}}
	return &trace.Suite{App: "broken", Sessions: []*trace.Session{s}}
}

func TestEnginePanicContained(t *testing.T) {
	_, err := engine.AnalyzeContextErr(context.Background(), brokenSuite(), 0)
	if err == nil {
		t.Fatal("panic in walker not surfaced as error")
	}
	if !strings.Contains(err.Error(), "broken session 0: panic") {
		t.Errorf("error not attributed to app and session: %v", err)
	}
}

func TestEngineLegacyAPIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("error-free Analyze swallowed the failure")
		}
	}()
	engine.Analyze(brokenSuite(), 0)
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite := &trace.Suite{App: "x", Sessions: []*trace.Session{{App: "x", End: 1000}}}
	_, err := engine.AnalyzeContextErr(ctx, suite, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
