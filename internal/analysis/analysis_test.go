package analysis_test

// The paper's Section IV rules on hand-built episodes. The rules are
// defined once, in internal/engine; these tests pin them through the
// engine's API, next to the vocabulary they produce.

import (
	"math"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/trace"
)

// analyze runs the engine over the sessions as one suite.
func analyze(sessions []*trace.Session) *engine.Result {
	return engine.Analyze(&trace.Suite{App: "t", Sessions: sessions}, th)
}

func ms(v float64) trace.Time { return trace.Time(trace.Ms(v)) }

func ep(start trace.Time, dur trace.Dur, children ...*trace.Interval) *trace.Episode {
	root := trace.NewInterval(trace.KindDispatch, "", "", start, dur)
	for _, c := range children {
		root.AddChild(c)
	}
	return &trace.Episode{Thread: 1, Root: root}
}

func sessionWith(eps ...*trace.Episode) *trace.Session {
	s := &trace.Session{App: "t", GUIThread: 1, Start: 0, FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod: 10 * trace.Millisecond}
	var end trace.Time
	for i, e := range eps {
		e.Index = i
		if e.End() > end {
			end = e.End()
		}
	}
	s.Episodes = eps
	s.End = end.Add(trace.Second)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

const th = trace.DefaultPerceptibleThreshold

func TestTriggerOf(t *testing.T) {
	listener := trace.NewInterval(trace.KindListener, "a.B", "on", ms(0), trace.Ms(50))
	paint := trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(60), trace.Ms(30))

	cases := []struct {
		name string
		e    *trace.Episode
		want analysis.Trigger
	}{
		{"input", ep(0, trace.Ms(100), listener.Clone(), paint.Clone()), analysis.TriggerInput},
		{"output", ep(0, trace.Ms(100),
			trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(0), trace.Ms(30))), analysis.TriggerOutput},
		{"async", ep(0, trace.Ms(100),
			trace.NewInterval(trace.KindAsync, "q.E", "dispatch", ms(0), trace.Ms(30),
				trace.NewInterval(trace.KindNative, "n.N", "call", ms(5), trace.Ms(10)))), analysis.TriggerAsync},
		{"unspecified empty", ep(0, trace.Ms(100)), analysis.TriggerUnspecified},
		{"unspecified gc-only", ep(0, trace.Ms(500), trace.NewGC(ms(10), trace.Ms(300), true)), analysis.TriggerUnspecified},
		{"unspecified native-only", ep(0, trace.Ms(100),
			trace.NewInterval(trace.KindNative, "n.N", "call", ms(0), trace.Ms(50))), analysis.TriggerUnspecified},
		// The Swing repaint-manager case: async containing paint is
		// really output.
		{"repaint manager", ep(0, trace.Ms(100),
			trace.NewInterval(trace.KindAsync, "q.E", "dispatch", ms(0), trace.Ms(90),
				trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(5), trace.Ms(80)))), analysis.TriggerOutput},
		// Nested deciding interval below a native call.
		{"nested listener", ep(0, trace.Ms(100),
			trace.NewInterval(trace.KindNative, "n.N", "call", ms(0), trace.Ms(90),
				trace.NewInterval(trace.KindListener, "a.B", "on", ms(10), trace.Ms(50)))), analysis.TriggerInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := engine.TriggerOf(tc.e); got != tc.want {
				t.Errorf("TriggerOf = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTriggerAsyncReclassify: an async interval that paints is output
// (the repaint-manager case); one that does not stays async.
func TestTriggerAsyncReclassify(t *testing.T) {
	e := ep(0, trace.Ms(100),
		trace.NewInterval(trace.KindAsync, "q.E", "dispatch", ms(0), trace.Ms(90),
			trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(5), trace.Ms(80))))
	if got := engine.TriggerOf(e); got != analysis.TriggerOutput {
		t.Errorf("async holding a paint = %v, want output", got)
	}
	e = ep(0, trace.Ms(100),
		trace.NewInterval(trace.KindAsync, "q.E", "dispatch", ms(0), trace.Ms(90),
			trace.NewInterval(trace.KindNative, "x.N", "draw", ms(5), trace.Ms(80))))
	if got := engine.TriggerOf(e); got != analysis.TriggerAsync {
		t.Errorf("async without a paint = %v, want async", got)
	}
}

func TestTriggerAnalysisCountsAndFilters(t *testing.T) {
	s := sessionWith(
		ep(ms(0), trace.Ms(200), trace.NewInterval(trace.KindListener, "a.B", "on", ms(0), trace.Ms(100))),
		ep(ms(1000), trace.Ms(10), trace.NewInterval(trace.KindListener, "a.B", "on", ms(1000), trace.Ms(5))),
		ep(ms(2000), trace.Ms(300), trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(2000), trace.Ms(100))),
		ep(ms(3000), trace.Ms(400)),
	)
	r := analyze([]*trace.Session{s})
	all := r.TriggerAll
	if all.Total != 4 {
		t.Fatalf("all total = %d", all.Total)
	}
	if all.Frac(analysis.TriggerInput) != 0.5 || all.Frac(analysis.TriggerOutput) != 0.25 || all.Frac(analysis.TriggerUnspecified) != 0.25 {
		t.Errorf("all fracs: input=%v output=%v unspec=%v", all.Frac(analysis.TriggerInput), all.Frac(analysis.TriggerOutput), all.Frac(analysis.TriggerUnspecified))
	}
	long := r.TriggerLong
	if long.Total != 3 {
		t.Fatalf("perceptible total = %d", long.Total)
	}
	if got := long.Frac(analysis.TriggerInput); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("perceptible input frac = %v", got)
	}
	var empty analysis.TriggerShares
	if empty.Frac(analysis.TriggerInput) != 0 {
		t.Error("empty shares should report 0")
	}
}

// tickAt appends a sampling tick with the given GUI-thread state and
// leaf class, plus optionally a runnable worker thread.
func tickAt(s *trace.Session, at trace.Time, state trace.ThreadState, leafClass string, native bool, workerRunnable bool) {
	threads := []trace.ThreadSample{{
		Thread: 1,
		State:  state,
		Stack:  []trace.Frame{{Class: leafClass, Method: "m", Native: native}},
	}}
	wstate := trace.StateWaiting
	if workerRunnable {
		wstate = trace.StateRunnable
	}
	threads = append(threads, trace.ThreadSample{Thread: 2, State: wstate})
	s.Ticks = append(s.Ticks, trace.SampleTick{Time: at, Threads: threads})
}

func TestLocationAnalysisSamplesSplit(t *testing.T) {
	e := ep(ms(0), trace.Ms(200),
		trace.NewInterval(trace.KindNative, "sun.j2d.Draw", "line", ms(20), trace.Ms(50),
			trace.NewGC(ms(30), trace.Ms(20), false)))
	s := sessionWith(e)
	// 2 library samples, 1 app sample, 1 native-leaf sample
	// (excluded), 1 sample outside the episode (excluded).
	tickAt(s, ms(5), trace.StateRunnable, "javax.swing.JComponent", false, false)
	tickAt(s, ms(10), trace.StateRunnable, "java.util.HashMap", false, false)
	tickAt(s, ms(15), trace.StateRunnable, "com.example.Model", false, false)
	tickAt(s, ms(25), trace.StateRunnable, "sun.j2d.Draw", true, false)
	tickAt(s, ms(500), trace.StateRunnable, "com.example.Idle", false, false)

	loc := analyze([]*trace.Session{s}).LocationAll
	if loc.JavaSamples != 3 {
		t.Fatalf("JavaSamples = %d, want 3", loc.JavaSamples)
	}
	if math.Abs(loc.Library-2.0/3) > 1e-12 || math.Abs(loc.App-1.0/3) > 1e-12 {
		t.Errorf("App/Library = %v/%v", loc.App, loc.Library)
	}
	// GC: 20ms of 200ms = 0.1; native exclusive: 30ms of 200ms = 0.15.
	if math.Abs(loc.GC-0.1) > 1e-12 {
		t.Errorf("GC frac = %v, want 0.1", loc.GC)
	}
	if math.Abs(loc.Native-0.15) > 1e-12 {
		t.Errorf("Native frac = %v, want 0.15", loc.Native)
	}
	if loc.EpisodeTime != trace.Ms(200) {
		t.Errorf("EpisodeTime = %v", loc.EpisodeTime)
	}
}

func TestLocationAnalysisPerceptibleFilter(t *testing.T) {
	fast := ep(ms(0), trace.Ms(50), trace.NewGC(ms(10), trace.Ms(25), false))
	slow := ep(ms(1000), trace.Ms(200), trace.NewGC(ms(1010), trace.Ms(20), false))
	s := sessionWith(fast, slow)
	r := analyze([]*trace.Session{s})
	all, long := r.LocationAll, r.LocationLong
	if math.Abs(all.GC-45.0/250) > 1e-12 {
		t.Errorf("all GC = %v", all.GC)
	}
	if math.Abs(long.GC-0.1) > 1e-12 {
		t.Errorf("perceptible GC = %v", long.GC)
	}
	if all.JavaSamples != 0 || all.App != 0 || all.Library != 0 {
		t.Error("sample split should be zero without samples")
	}
}

func TestPrefixClassifier(t *testing.T) {
	isLib := engine.IsLibrary
	for _, cls := range []string{"java.util.ArrayList", "javax.swing.JButton", "sun.awt.X", "com.apple.laf.ComboBox", "jdk.internal.Foo"} {
		if !isLib(trace.Frame{Class: cls}) {
			t.Errorf("%s should be library", cls)
		}
	}
	for _, cls := range []string{"com.example.App", "org.gantt.Chart", "net.sf.jedit.Buffer", "javafake.X"} {
		if isLib(trace.Frame{Class: cls}) {
			t.Errorf("%s should be application", cls)
		}
	}
}

func TestConcurrency(t *testing.T) {
	e := ep(ms(0), trace.Ms(200), trace.NewInterval(trace.KindListener, "a.B", "on", ms(0), trace.Ms(150)))
	s := sessionWith(e)
	// Tick 1: GUI runnable + worker runnable = 2.
	tickAt(s, ms(10), trace.StateRunnable, "a.B", false, true)
	// Tick 2: GUI blocked, worker waiting = 0.
	tickAt(s, ms(20), trace.StateBlocked, "a.B", false, false)
	// Tick 3: GUI runnable, worker waiting = 1.
	tickAt(s, ms(30), trace.StateRunnable, "a.B", false, false)
	// Outside the episode: ignored.
	tickAt(s, ms(900), trace.StateRunnable, "a.B", false, true)

	r := analyze([]*trace.Session{s})
	avg, n := r.ConcurrencyAll, r.TicksAll
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	if got := avg; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("avg runnable = %v, want 1.0", got)
	}
	if r := analyze(nil); r.ConcurrencyAll != 0 || r.TicksAll != 0 {
		t.Error("empty concurrency should be 0,0")
	}
}

func TestCauseAnalysis(t *testing.T) {
	e := ep(ms(0), trace.Ms(400), trace.NewInterval(trace.KindListener, "a.B", "on", ms(0), trace.Ms(350)))
	s := sessionWith(e)
	tickAt(s, ms(10), trace.StateRunnable, "a.B", false, false)
	tickAt(s, ms(20), trace.StateRunnable, "a.B", false, false)
	tickAt(s, ms(30), trace.StateBlocked, "a.B", false, false)
	tickAt(s, ms(40), trace.StateSleeping, "com.apple.laf.Blink", false, false)

	c := analyze([]*trace.Session{s}).CausesAll
	if c.Samples != 4 {
		t.Fatalf("samples = %d", c.Samples)
	}
	if c.Runnable != 0.5 || c.Blocked != 0.25 || c.Sleeping != 0.25 || c.Waiting != 0 {
		t.Errorf("shares = %+v", c)
	}
	if sum := c.Runnable + c.Blocked + c.Sleeping + c.Waiting; math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	for _, st := range trace.ThreadStates() {
		if c.Frac(st) < 0 {
			t.Errorf("negative share for %v", st)
		}
	}
	if got := analyze(nil).CausesAll; got.Samples != 0 {
		t.Error("empty cause analysis should have 0 samples")
	}
}

func TestOverviewOf(t *testing.T) {
	mkSession := func(id int) *trace.Session {
		s := sessionWith(
			ep(ms(0), trace.Ms(200), trace.NewInterval(trace.KindListener, "a.B", "on", ms(0), trace.Ms(100))),
			ep(ms(1000), trace.Ms(50), trace.NewInterval(trace.KindListener, "a.B", "on", ms(1000), trace.Ms(25))),
			ep(ms(2000), trace.Ms(150), trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(2000), trace.Ms(100))),
			ep(ms(3000), trace.Ms(10)), // unstructured
		)
		s.ID = id
		s.ShortCount = 1000
		s.End = ms(10000) // 10 s E2E
		return s
	}
	suite := &trace.Suite{App: "TestApp", Sessions: []*trace.Session{mkSession(0), mkSession(1)}}
	o := engine.Analyze(suite, th).Overview

	if o.App != "TestApp" || o.Sessions != 2 {
		t.Errorf("identity: %+v", o)
	}
	if o.E2ESeconds != 10 {
		t.Errorf("E2E = %v", o.E2ESeconds)
	}
	// In-episode: 410ms of 10s.
	if math.Abs(o.InEpsFrac-0.041) > 1e-9 {
		t.Errorf("InEpsFrac = %v", o.InEpsFrac)
	}
	if o.Short != 1000 || o.Traced != 4 || o.Perceptible != 2 {
		t.Errorf("counts: %+v", o)
	}
	// 2 perceptible per (0.41/60) minutes of in-episode time.
	wantLPM := 2 / (0.41 / 60)
	if math.Abs(o.LongPerMin-wantLPM) > 1e-6 {
		t.Errorf("LongPerMin = %v, want %v", o.LongPerMin, wantLPM)
	}
	// Patterns per session: listener pattern (2 eps) + paint pattern.
	if o.Dist != 2 || o.CoveredEps != 3 {
		t.Errorf("patterns: Dist=%v CoveredEps=%v", o.Dist, o.CoveredEps)
	}
	if o.OneEpFrac != 0.5 {
		t.Errorf("OneEpFrac = %v", o.OneEpFrac)
	}
	if o.Descs != 1 || o.Depth != 2 {
		t.Errorf("structure: Descs=%v Depth=%v", o.Descs, o.Depth)
	}
}

func TestOverviewEmptySuite(t *testing.T) {
	o := engine.Analyze(&trace.Suite{App: "Empty"}, th).Overview
	if o.Sessions != 0 || o.Traced != 0 {
		t.Errorf("empty suite overview = %+v", o)
	}
}

func TestMeanOverview(t *testing.T) {
	rows := []analysis.Overview{
		{Sessions: 4, E2ESeconds: 100, Traced: 10, LongPerMin: 30, OneEpFrac: 0.4},
		{Sessions: 4, E2ESeconds: 300, Traced: 20, LongPerMin: 90, OneEpFrac: 0.6},
	}
	m := analysis.MeanOverview(rows)
	if m.App != "Mean" || m.Sessions != 8 {
		t.Errorf("mean identity: %+v", m)
	}
	if m.E2ESeconds != 200 || m.Traced != 15 || m.LongPerMin != 60 || m.OneEpFrac != 0.5 {
		t.Errorf("mean values: %+v", m)
	}
	if analysis.MeanOverview(nil).App != "Mean" {
		t.Error("empty mean should still be labelled")
	}
}

func TestTriggerNames(t *testing.T) {
	if len(analysis.Triggers()) != 4 {
		t.Fatal("want 4 trigger classes")
	}
	names := map[analysis.Trigger]string{
		analysis.TriggerInput: "input", analysis.TriggerOutput: "output",
		analysis.TriggerAsync: "async", analysis.TriggerUnspecified: "unspecified",
	}
	for tr, want := range names {
		if tr.String() != want {
			t.Errorf("%d.String() = %q, want %q", tr, tr.String(), want)
		}
	}
}
