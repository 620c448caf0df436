package treebuild

import (
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// MultiEDT is the two-EDT fixture: an episode on EDT-A with an
// overlapping one on EDT-B inside it, a shared sampling tick, and a GC
// while both are open. Exported for the release-mode tests.
func MultiEDT() (lila.Header, []*lila.Record) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	return lila.Header{App: "multi", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}, []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "EDT-A"},
		{Type: lila.RecThread, Thread: 2, Name: "EDT-B"},
		// Episode on EDT-A: 0..200ms (perceptible, listener).
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "a.A", Method: "on"},
		// Overlapping episode on EDT-B: 50..120ms (paint).
		{Type: lila.RecCall, Time: ms(50), Thread: 2, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(51), Thread: 2, Kind: trace.KindPaint, Class: "b.B", Method: "paint"},
		// Samples while both are busy: A runnable, B sleeping.
		{Type: lila.RecSample, Time: ms(60), Thread: 1, State: trace.StateRunnable,
			Stack: []trace.Frame{{Class: "a.A", Method: "on"}}},
		{Type: lila.RecSample, Time: ms(60), Thread: 2, State: trace.StateSleeping,
			Stack: []trace.Frame{{Class: "java.lang.Thread", Method: "sleep", Native: true}}},
		// A GC while both threads are inside intervals: both trees
		// receive a copy.
		{Type: lila.RecGCStart, Time: ms(70)},
		{Type: lila.RecGCEnd, Time: ms(90)},
		{Type: lila.RecReturn, Time: ms(110), Thread: 2},
		{Type: lila.RecReturn, Time: ms(120), Thread: 2},
		{Type: lila.RecReturn, Time: ms(190), Thread: 1},
		{Type: lila.RecReturn, Time: ms(200), Thread: 1},
		{Type: lila.RecEnd, Time: ms(1000)},
	}
}

// TestMultipleEventDispatchThreads exercises the capability the paper
// states but does not use (§V): "LagAlyzer already supports traces
// based on multiple concurrent event dispatch threads. It defines the
// notion of an episode as the time interval from the point where a
// given thread starts handling a GUI event until that thread finishes
// handling that event."
//
// Two EDTs handle interleaved — even overlapping — episodes; both
// must be reconstructed, each attributed to its thread, and the
// per-thread analyses must follow the right thread's samples.
func TestMultipleEventDispatchThreads(t *testing.T) {
	h, recs := MultiEDT()
	s, diag, err := BuildRecords(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if diag.OrphanTopLevel != 0 {
		t.Errorf("orphans: %d", diag.OrphanTopLevel)
	}
	if len(s.Episodes) != 2 {
		t.Fatalf("episodes = %d, want 2 (one per EDT)", len(s.Episodes))
	}
	a, b := s.Episodes[0], s.Episodes[1]
	if a.Thread != 1 || b.Thread != 2 {
		t.Errorf("episode threads = %d, %d", a.Thread, b.Thread)
	}
	if a.Dur() != trace.Ms(200) || b.Dur() != trace.Ms(70) {
		t.Errorf("durations = %v, %v", a.Dur(), b.Dur())
	}
	// Overlap preserved.
	if !(b.Start() > a.Start() && b.End() < a.End()) {
		t.Error("episodes should overlap (B inside A's span)")
	}
	// Both trees got the GC copy.
	for i, e := range s.Episodes {
		if !e.Root.HasKind(trace.KindGC) {
			t.Errorf("episode %d lost the GC copy", i)
		}
	}

	r := engine.Analyze(&trace.Suite{Sessions: []*trace.Session{s}}, trace.DefaultPerceptibleThreshold)

	// Triggers: one input (A) and one output (B).
	trig := r.TriggerAll
	if trig.Counts[analysis.TriggerInput] != 1 || trig.Counts[analysis.TriggerOutput] != 1 {
		t.Errorf("trigger counts: %v", trig.Counts)
	}

	// Cause analysis follows each episode's own thread: the shared
	// tick contributes one runnable sample (episode A, thread 1) and
	// one sleeping sample (episode B, thread 2).
	causes := r.CausesAll
	if causes.Samples != 2 {
		t.Fatalf("cause samples = %d, want 2", causes.Samples)
	}
	if causes.Runnable != 0.5 || causes.Sleeping != 0.5 {
		t.Errorf("causes = %+v", causes)
	}

	// Concurrency counts the tick once per episode containing it.
	if ticks := r.TicksAll; ticks != 2 {
		t.Errorf("concurrency ticks = %d (tick inside two overlapping episodes)", ticks)
	}
}
