package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
)

// testProfile is a small app: one click behavior with a listener that
// paints, one timer repaint, one background thread, and a GC-prone
// heap.
func testProfile() *Profile {
	return &Profile{
		Name:           "MiniApp",
		Version:        "1.0",
		Classes:        42,
		AppPackage:     "com.example.mini",
		SessionSeconds: 30,
		ThinkTimeMs:    stats.Exp{MeanV: 400},
		ShortPerSecond: 50,
		LibraryFrac:    0.5,
		UserBehaviors: []*Behavior{
			{
				Name:   "click",
				Weight: 1,
				DurMs:  stats.Clamped{D: stats.LogNormal{Median: 40, Sigma: 0.9}, Lo: 4, Hi: 3000},
				Nodes: []Node{
					{
						Kind: trace.KindListener, Class: "com.example.mini.ButtonHandler", Method: "actionPerformed",
						Weight: 0.4,
						Children: []Node{
							{Kind: trace.KindPaint, Class: "javax.swing.JPanel", Method: "paint", Weight: 0.4},
							{Kind: trace.KindNative, Class: "sun.java2d.loops.Blit", Method: "Blit", Weight: 0.2, Prob: 0.5},
						},
					},
				},
			},
		},
		Timers: []*Timer{
			{
				Behavior: &Behavior{
					Name:  "repaint",
					DurMs: stats.Clamped{D: stats.LogNormal{Median: 25, Sigma: 0.5}, Lo: 4, Hi: 500},
					Nodes: []Node{
						{Kind: trace.KindAsync, Class: "java.awt.event.InvocationEvent", Method: "dispatch", Weight: 0.1,
							Children: []Node{
								{Kind: trace.KindPaint, Class: "com.example.mini.Canvas", Method: "paint", Weight: 0.9},
							}},
					},
				},
				PeriodMs: stats.Const{V: 500},
			},
		},
		Heap: HeapConfig{
			CapacityMB:        8,
			AllocMBPerSec:     30,
			IdleAllocMBPerSec: 1,
			MinorPauseMs:      stats.Uniform{Lo: 5, Hi: 20},
			MajorEvery:        8,
			MajorPauseMs:      stats.Uniform{Lo: 80, Hi: 200},
			RampMs:            stats.Uniform{Lo: 0.2, Hi: 2},
			PostDelayMs:       stats.Uniform{Lo: 0.2, Hi: 5},
		},
		Background: []*BackgroundThread{
			{Name: "loader", ActiveFrom: 2, ActiveTo: 10, Duty: 0.8, AllocMBPerSec: 2},
		},
	}
}

func runTest(t *testing.T, cfg Config) *trace.Session {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("simulated session invalid: %v", err)
	}
	return s
}

func TestRunProducesValidSession(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 1})
	if s.App != "MiniApp" {
		t.Errorf("App = %q", s.App)
	}
	if got := s.E2E().Seconds(); got < 27-1e-9 || got > 33+1e-9 {
		t.Errorf("E2E = %vs, want 30±10%%", got)
	}
	if len(s.Episodes) < 20 {
		t.Errorf("only %d episodes", len(s.Episodes))
	}
	if s.ShortCount == 0 {
		t.Error("no short episodes counted")
	}
	if len(s.Ticks) < 1000 {
		t.Errorf("only %d ticks (expected ~3000 for a 30s session)", len(s.Ticks))
	}
	if len(s.GCs) == 0 {
		t.Error("no collections despite allocation pressure")
	}
	if len(s.Threads) != 2 {
		t.Errorf("threads = %d, want 2", len(s.Threads))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Profile: testProfile(), Seed: 7, SessionID: 2}
	r1, h1, err := Records(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, h2, err := Records(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("headers differ between identical runs")
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if !reflect.DeepEqual(r1[i], r2[i]) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}
	// A different session id must give a different stream.
	r3, _, err := Records(Config{Profile: testProfile(), Seed: 7, SessionID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) == len(r3) {
		same := true
		for i := range r1 {
			if !reflect.DeepEqual(r1[i], r3[i]) {
				same = false
				break
			}
		}
		if same {
			t.Error("different session ids produced identical streams")
		}
	}
}

func TestRecordStreamIsWellFormed(t *testing.T) {
	recs, _, err := Records(Config{Profile: testProfile(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var last trace.Time
	depth := 0
	inGC := false
	for i, rec := range recs {
		if rec.Type != lila.RecThread && rec.Time < last {
			t.Fatalf("record %d at %v after %v", i, rec.Time, last)
		}
		if rec.Type != lila.RecThread {
			last = rec.Time
		}
		switch rec.Type {
		case lila.RecCall:
			depth++
		case lila.RecReturn:
			depth--
			if depth < 0 {
				t.Fatal("return underflow")
			}
		case lila.RecGCStart:
			if inGC {
				t.Fatal("nested GC")
			}
			inGC = true
		case lila.RecGCEnd:
			inGC = false
		case lila.RecSample:
			if inGC {
				t.Errorf("record %d: sample during GC bracket", i)
			}
			if len(rec.Stack) == 0 {
				t.Errorf("record %d: empty sample stack", i)
			}
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if depth != 0 || inGC {
		t.Errorf("unbalanced stream: depth=%d inGC=%v", depth, inGC)
	}
	if recs[len(recs)-1].Type != lila.RecEnd {
		t.Error("stream must end with RecEnd")
	}
}

func TestEpisodeStructures(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 11})
	var sawListener, sawNestedPaint, sawOptionalNative, sawWithoutNative, sawAsyncPaint bool
	for _, e := range s.Episodes {
		if len(e.Root.Children) == 0 {
			continue
		}
		c := e.Root.Children[0]
		switch c.Kind {
		case trace.KindListener:
			sawListener = true
			hasNative := false
			for _, cc := range c.Children {
				if cc.Kind == trace.KindPaint {
					sawNestedPaint = true
				}
				if cc.Kind == trace.KindNative {
					hasNative = true
				}
			}
			if hasNative {
				sawOptionalNative = true
			} else {
				sawWithoutNative = true
			}
		case trace.KindAsync:
			if c.HasKind(trace.KindPaint) {
				sawAsyncPaint = true
			}
		}
	}
	if !sawListener || !sawNestedPaint {
		t.Error("listener episodes with nested paints not produced")
	}
	if !sawOptionalNative || !sawWithoutNative {
		t.Error("optional native child did not create structural diversity")
	}
	if !sawAsyncPaint {
		t.Error("timer episodes with async(paint) not produced")
	}
}

func TestPatternsEmergeFromSimulation(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 13})
	set := engine.Classify([]*trace.Session{s})
	if len(set.Patterns) < 2 {
		t.Fatalf("only %d patterns", len(set.Patterns))
	}
	// The two main behaviors (with and without the optional native)
	// plus the timer pattern should dominate.
	if set.Patterns[0].Count() < 5 {
		t.Errorf("largest pattern has only %d episodes", set.Patterns[0].Count())
	}
}

func TestGCAppearsInsideEpisodes(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 17})
	inEpisode := 0
	for _, e := range s.Episodes {
		if e.Root.HasKind(trace.KindGC) {
			inEpisode++
		}
	}
	if inEpisode == 0 {
		t.Error("no episode contains a GC despite 30 MB/s allocation against an 8 MB heap")
	}
	// And sampling is suppressed during collections.
	for _, gc := range s.GCs {
		if n := len(s.TicksIn(gc.Start, gc.End)); n > 0 {
			t.Fatalf("%d ticks inside GC [%v,%v]", n, gc.Start, gc.End)
		}
	}
}

func TestBackgroundThreadVisibleInSamples(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 19})
	// During the loader's active phase ([2s,10s), duty 0.8) it should
	// often be runnable; outside, never.
	activeRunnable, activeTotal := 0, 0
	for _, tick := range s.TicksIn(trace.Time(2*trace.Second), trace.Time(10*trace.Second)) {
		ts, ok := tick.Thread(2)
		if !ok {
			t.Fatal("loader not sampled")
		}
		activeTotal++
		if ts.State == trace.StateRunnable {
			activeRunnable++
		}
	}
	if activeTotal == 0 {
		t.Fatal("no ticks in the loader's active phase")
	}
	frac := float64(activeRunnable) / float64(activeTotal)
	if math.Abs(frac-0.8) > 0.1 {
		t.Errorf("loader runnable fraction = %v, want ≈0.8", frac)
	}
	for _, tick := range s.TicksIn(trace.Time(12*trace.Second), s.End) {
		if ts, ok := tick.Thread(2); ok && ts.State == trace.StateRunnable {
			t.Fatal("loader runnable outside its active phase")
		}
	}
}

func TestStateMixShowsUpInCauses(t *testing.T) {
	p := testProfile()
	p.Heap = HeapConfig{} // no GC noise
	p.Timers = nil
	p.UserBehaviors = []*Behavior{{
		Name:   "sleepy",
		Weight: 1,
		DurMs:  stats.Const{V: 300},
		Nodes: []Node{{
			Kind: trace.KindListener, Class: "com.example.mini.Combo", Method: "show",
			Weight: 1,
			States: StateMix{Sleeping: 0.6},
			ExtraFrames: []trace.Frame{
				{Class: "com.apple.laf.AquaComboBoxUI", Method: "blink"},
			},
		}},
	}}
	s := runTest(t, Config{Profile: p, Seed: 23})
	c := analyzeSession(s).CausesLong
	if c.Samples < 100 {
		t.Fatalf("too few samples: %d", c.Samples)
	}
	if math.Abs(c.Sleeping-0.6) > 0.08 {
		t.Errorf("sleeping share = %v, want ≈0.6", c.Sleeping)
	}
	// Sleeping samples must show Thread.sleep over the blink frame.
	found := false
	for _, tick := range s.Ticks {
		ts, ok := tick.Thread(1)
		if !ok || ts.State != trace.StateSleeping {
			continue
		}
		str := ts.StackString()
		if strings.Contains(str, "java.lang.Thread.sleep") && strings.Contains(str, "AquaComboBoxUI.blink") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no sleeping sample shows the Thread.sleep/blink stack")
	}
}

func TestExplicitGCEpisodes(t *testing.T) {
	p := testProfile()
	p.Timers = nil
	p.Heap.AllocMBPerSec = 0.1
	p.Heap.IdleAllocMBPerSec = 0.01
	p.UserBehaviors = []*Behavior{{
		Name:   "systemgc",
		Weight: 1,
		DurMs:  stats.Const{V: 150},
		Nodes: []Node{{
			Kind: trace.KindListener, Class: "x.Gc", Method: "trigger",
			// 0.0002/(0.0202) of 150 ms ≈ 1.5 ms: below the filter,
			// so the listener interval is structurally invisible.
			Weight: 0.0002, ExplicitGC: true,
		}},
	}}
	s := runTest(t, Config{Profile: p, Seed: 29})
	unspecifiedWithGC := 0
	ea := engine.NewEpisodeAnalyzer()
	for _, e := range s.Episodes {
		hasGC := e.Root.HasKind(trace.KindGC)
		if !ea.Analyze(s, e).Structured && hasGC {
			unspecifiedWithGC++
		}
		if tr := engine.TriggerOf(e); tr != analysis.TriggerUnspecified {
			t.Fatalf("explicit-GC episode classified as %v, want unspecified", tr)
		}
	}
	if unspecifiedWithGC == 0 {
		t.Error("no unstructured GC-only episodes produced")
	}
	// Every collection must be major (System.gc()).
	for _, gc := range s.GCs {
		if !gc.Major {
			t.Error("explicit collection not major")
		}
	}
}

func TestMaterializeShort(t *testing.T) {
	p := testProfile()
	p.ShortPerSecond = 100
	cfg := Config{Profile: p, Seed: 31, MaterializeShort: true, SessionSeconds: 10}
	s := runTest(t, cfg)
	if s.ShortCount < 500 {
		t.Errorf("materialized ShortCount = %d, want ≈1000", s.ShortCount)
	}
	// Closed-form mode should give a similar count.
	s2 := runTest(t, Config{Profile: p, Seed: 31, SessionSeconds: 10})
	ratio := float64(s.ShortCount) / float64(s2.ShortCount)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("materialized %d vs closed-form %d: implausible ratio", s.ShortCount, s2.ShortCount)
	}
}

func TestSessionLengthOverride(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 37, SessionSeconds: 5})
	if got := s.E2E().Seconds(); math.Abs(got-5) > 1.0 {
		t.Errorf("E2E = %v, want ≈5s", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"no name", func(p *Profile) { p.Name = "" }, "no name"},
		{"no sources", func(p *Profile) { p.UserBehaviors = nil; p.Timers = nil }, "neither"},
		{"no session length", func(p *Profile) { p.SessionSeconds = 0 }, "session length"},
		{"nil dur", func(p *Profile) { p.UserBehaviors[0].DurMs = nil }, "duration distribution"},
		{"no think time", func(p *Profile) { p.ThinkTimeMs = nil }, "think time"},
		{"nil timer period", func(p *Profile) { p.Timers[0].PeriodMs = nil }, "period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProfile()
			tc.mut(p)
			_, _, err := Records(Config{Profile: p, Seed: 1})
			if err == nil {
				t.Fatal("bad config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, _, err := Records(Config{}); err == nil {
		t.Error("nil profile accepted")
	}
}

// analyzeSession runs the analysis engine over one session.
func analyzeSession(s *trace.Session) *engine.Result {
	return engine.Analyze(&trace.Suite{Sessions: []*trace.Session{s}}, trace.DefaultPerceptibleThreshold)
}

func TestLibFracControlsLocationSplit(t *testing.T) {
	mk := func(libFrac float64) *trace.Session {
		p := testProfile()
		p.Heap = HeapConfig{}
		p.Timers = nil
		p.LibraryFrac = libFrac
		p.UserBehaviors = []*Behavior{{
			Name: "work", Weight: 1, DurMs: stats.Const{V: 200},
			Nodes: []Node{{Kind: trace.KindListener, Class: "com.example.mini.H", Method: "on", Weight: 1}},
		}}
		return runTest(t, Config{Profile: p, Seed: 41})
	}
	libHeavy := analyzeSession(mk(0.9)).LocationAll
	appHeavy := analyzeSession(mk(0.1)).LocationAll
	if math.Abs(libHeavy.Library-0.9) > 0.08 {
		t.Errorf("library-heavy split = %v, want ≈0.9", libHeavy.Library)
	}
	if math.Abs(appHeavy.App-0.9) > 0.08 {
		t.Errorf("app-heavy split = %v, want ≈0.9", appHeavy.App)
	}
}

func TestTimerWindowRespected(t *testing.T) {
	p := testProfile()
	p.UserBehaviors = nil
	p.ThinkTimeMs = nil
	p.ShortPerSecond = 0
	p.Heap = HeapConfig{}
	p.Timers[0].ActiveFrom = 5
	p.Timers[0].ActiveTo = 15
	s := runTest(t, Config{Profile: p, Seed: 43, SessionSeconds: 30})
	if len(s.Episodes) == 0 {
		t.Fatal("timer produced no episodes")
	}
	for _, e := range s.Episodes {
		sec := e.Start().Seconds()
		if sec < 5-1e-9 || sec > 16 {
			t.Fatalf("timer episode at %vs outside [5,15]s window", sec)
		}
	}
}

func TestSamplePeriodOverride(t *testing.T) {
	fast := runTest(t, Config{Profile: testProfile(), Seed: 61, SamplePeriod: 5 * trace.Millisecond, SessionSeconds: 10})
	slow := runTest(t, Config{Profile: testProfile(), Seed: 61, SamplePeriod: 50 * trace.Millisecond, SessionSeconds: 10})
	if fast.SamplePeriod != 5*trace.Millisecond || slow.SamplePeriod != 50*trace.Millisecond {
		t.Fatal("sample period not recorded in the session")
	}
	ratio := float64(len(fast.Ticks)) / float64(len(slow.Ticks))
	if ratio < 6 || ratio > 14 {
		t.Errorf("tick ratio = %.1f (10x period change), ticks %d vs %d", ratio, len(fast.Ticks), len(slow.Ticks))
	}
}

func TestIdleGCsStayOutOfEpisodes(t *testing.T) {
	p := testProfile()
	p.Timers = nil
	p.ShortPerSecond = 1
	// Almost no user activity, heavy idle allocation: collections
	// must happen between episodes and appear session-wide only.
	p.ThinkTimeMs = stats.Const{V: 5000}
	p.Heap.AllocMBPerSec = 0.1
	p.Heap.IdleAllocMBPerSec = 20
	s := runTest(t, Config{Profile: p, Seed: 67, SessionSeconds: 20})
	if len(s.GCs) < 10 {
		t.Fatalf("only %d collections with 20 MB/s idle allocation", len(s.GCs))
	}
	inEpisode := 0
	for _, e := range s.Episodes {
		if e.Root.HasKind(trace.KindGC) {
			inEpisode++
		}
	}
	if inEpisode > len(s.GCs)/4 {
		t.Errorf("%d of %d collections landed inside episodes of a ~idle session", inEpisode, len(s.GCs))
	}
}

func TestTimerSaturationCoalesces(t *testing.T) {
	// A 10 ms timer with ~60 ms handlers saturates the EDT: episodes
	// must queue back-to-back without overlapping, and the effective
	// rate is bounded by the handler duration, not the period.
	p := testProfile()
	p.UserBehaviors = nil
	p.ThinkTimeMs = nil
	p.ShortPerSecond = 0
	p.Heap = HeapConfig{}
	p.Background = nil
	p.Timers = []*Timer{{
		Behavior: &Behavior{
			Name:  "flood",
			DurMs: stats.Const{V: 60},
			Nodes: []Node{{Kind: trace.KindPaint, Class: "x.P", Method: "paint", Weight: 1}},
		},
		PeriodMs: stats.Const{V: 10},
	}}
	s := runTest(t, Config{Profile: p, Seed: 71, SessionSeconds: 10})
	// ~10s / 60ms ≈ 166 episodes, far below the 1000 the period alone
	// would produce.
	if n := len(s.Episodes); n < 120 || n > 200 {
		t.Errorf("saturated timer produced %d episodes, want ≈166", n)
	}
	for i := 1; i < len(s.Episodes); i++ {
		if s.Episodes[i].Start() < s.Episodes[i-1].End() {
			t.Fatal("episodes overlap")
		}
	}
	if f := s.InEpisodeFrac(); f < 0.9 {
		t.Errorf("saturated EDT in-episode fraction = %.2f", f)
	}
}

func TestStackSynthesisShapes(t *testing.T) {
	s := runTest(t, Config{Profile: testProfile(), Seed: 73, SessionSeconds: 20})
	sawIdle, sawEDTBase := false, false
	for _, tick := range s.Ticks {
		ts, ok := tick.Thread(1)
		if !ok || len(ts.Stack) == 0 {
			t.Fatal("GUI thread sample missing or empty")
		}
		bottom := ts.Stack[len(ts.Stack)-1]
		if bottom.Class != "java.awt.EventDispatchThread" {
			t.Fatalf("GUI stack does not bottom out in the EDT: %v", bottom)
		}
		if ts.State == trace.StateWaiting && ts.Stack[0].Class == "java.lang.Object" {
			sawIdle = true
		}
		if len(ts.Stack) > 3 {
			sawEDTBase = true
		}
	}
	if !sawIdle {
		t.Error("no idle (waiting in getNextEvent) samples")
	}
	if !sawEDTBase {
		t.Error("no deep in-episode samples")
	}
}
