package trace_test

import (
	"testing"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/trace"
)

// TestStructured: an episode takes part in pattern classification
// (paper, Section IV-A, column "#Eps") only when its dispatch interval
// has a child besides incidental garbage collections. The rule is the
// engine walk's, so the test asks the engine.
func TestStructured(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	structured := func(e *trace.Episode) bool {
		return engine.NewEpisodeAnalyzer().Analyze(&trace.Session{}, e).Structured
	}
	childless := &trace.Episode{Root: trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(200))}
	if structured(childless) {
		t.Error("childless episode should not be structured")
	}
	gcOnly := &trace.Episode{Root: trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(500),
		trace.NewGC(ms(10), trace.Ms(400), true))}
	if structured(gcOnly) {
		t.Error("episode with only a GC child should not be structured (paper §IV-A)")
	}
	mixed := &trace.Episode{Root: trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(500),
		trace.NewGC(ms(10), trace.Ms(100), false),
		trace.NewInterval(trace.KindPaint, "a.B", "paint", ms(200), trace.Ms(100)))}
	if !structured(mixed) {
		t.Error("episode with a non-GC child should be structured")
	}
}
