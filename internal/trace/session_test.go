package trace

import (
	"strings"
	"testing"
)

// testSession builds a small two-episode session with samples.
func testSession() *Session {
	ep0 := &Episode{Index: 0, Thread: 1,
		Root: NewInterval(KindDispatch, "", "", Time(Second), Ms(50),
			NewInterval(KindListener, "app.Button", "click", Time(Second), Ms(50)))}
	ep1 := &Episode{Index: 1, Thread: 1,
		Root: NewInterval(KindDispatch, "", "", Time(2*Second), Ms(400),
			NewInterval(KindPaint, "javax.swing.JPanel", "paint", Time(2*Second), Ms(400)))}
	s := &Session{
		App:             "TestApp",
		ID:              0,
		Start:           0,
		End:             Time(10 * Second),
		GUIThread:       1,
		Threads:         []ThreadInfo{{ID: 1, Name: "AWT-EventQueue-0"}, {ID: 2, Name: "worker", Daemon: true}},
		Episodes:        []*Episode{ep0, ep1},
		ShortCount:      1234,
		FilterThreshold: DefaultFilterThreshold,
		SamplePeriod:    10 * Millisecond,
	}
	for ts := Time(0); ts < s.End; ts = ts.Add(100 * Millisecond) {
		s.Ticks = append(s.Ticks, SampleTick{
			Time: ts,
			Threads: []ThreadSample{
				{Thread: 1, State: StateRunnable, Stack: []Frame{{Class: "app.Main", Method: "run"}}},
				{Thread: 2, State: StateWaiting},
			},
		})
	}
	return s
}

func TestSessionDurationsAndFractions(t *testing.T) {
	s := testSession()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := s.E2E(), 10*Second; got != want {
		t.Errorf("E2E = %v, want %v", got, want)
	}
	if got, want := s.InEpisode(), Ms(450); got != want {
		t.Errorf("InEpisode = %v, want %v", got, want)
	}
	if got, want := s.InEpisodeFrac(), 0.045; got != want {
		t.Errorf("InEpisodeFrac = %v, want %v", got, want)
	}
}

func TestPerceptibleEpisodes(t *testing.T) {
	s := testSession()
	long := s.PerceptibleEpisodes(DefaultPerceptibleThreshold)
	if len(long) != 1 || long[0].Index != 1 {
		t.Fatalf("PerceptibleEpisodes = %v, want just episode 1", long)
	}
	if !long[0].Perceptible(DefaultPerceptibleThreshold) {
		t.Error("episode 1 should be perceptible at 100ms")
	}
	if long[0].Perceptible(Ms(500)) {
		t.Error("episode 1 should not be perceptible at 500ms")
	}
	// Exactly at the threshold counts as perceptible (≥).
	e := &Episode{Root: NewInterval(KindDispatch, "", "", 0, Ms(100))}
	if !e.Perceptible(Ms(100)) {
		t.Error("episode exactly at the threshold should be perceptible")
	}
}

func TestTicksInUsesHalfOpenWindow(t *testing.T) {
	s := testSession()
	got := s.TicksIn(Time(Second), Time(Second).Add(Ms(300)))
	if len(got) != 3 {
		t.Fatalf("TicksIn returned %d ticks, want 3", len(got))
	}
	if got[0].Time != Time(Second) {
		t.Errorf("first tick at %v, want 1s", got[0].Time)
	}
	if len(s.TicksIn(Time(100*Second), Time(200*Second))) != 0 {
		t.Error("window beyond session should be empty")
	}
}

func TestEpisodeTicks(t *testing.T) {
	s := testSession()
	ticks := s.EpisodeTicks(s.Episodes[1]) // [2s, 2.4s)
	if len(ticks) != 4 {
		t.Fatalf("EpisodeTicks = %d ticks, want 4", len(ticks))
	}
}

func TestEpisodeAt(t *testing.T) {
	s := testSession()
	if e, ok := s.EpisodeAt(Time(2 * Second).Add(Ms(10))); !ok || e.Index != 1 {
		t.Errorf("EpisodeAt(2.01s) = %v,%v; want episode 1", e, ok)
	}
	if _, ok := s.EpisodeAt(Time(5 * Second)); ok {
		t.Error("EpisodeAt between episodes should report false")
	}
	if _, ok := s.EpisodeAt(0); ok {
		t.Error("EpisodeAt before first episode should report false")
	}
}

func TestThreadByID(t *testing.T) {
	s := testSession()
	info, ok := s.ThreadByID(2)
	if !ok || info.Name != "worker" || !info.Daemon {
		t.Errorf("ThreadByID(2) = %+v, %v", info, ok)
	}
	if _, ok := s.ThreadByID(99); ok {
		t.Error("ThreadByID(99) should report false")
	}
}

func TestSampleTickRunnableAndThread(t *testing.T) {
	tick := testSession().Ticks[0]
	if got := tick.Runnable(); got != 1 {
		t.Errorf("Runnable = %d, want 1", got)
	}
	ts, ok := tick.Thread(2)
	if !ok || ts.State != StateWaiting {
		t.Errorf("Thread(2) = %+v, %v", ts, ok)
	}
	if _, ok := tick.Thread(42); ok {
		t.Error("Thread(42) should report false")
	}
}

func TestSampleTickScanThread(t *testing.T) {
	tick := testSession().Ticks[0]
	runnable, idx := tick.ScanThread(2)
	if runnable != tick.Runnable() {
		t.Errorf("ScanThread runnable = %d, want %d", runnable, tick.Runnable())
	}
	want, _ := tick.Thread(2)
	if idx < 0 || tick.Threads[idx].State != want.State {
		t.Errorf("ScanThread idx = %d (%+v), want state %v", idx, tick.Threads[idx], want.State)
	}
	if _, idx := tick.ScanThread(42); idx != -1 {
		t.Errorf("ScanThread(42) idx = %d, want -1", idx)
	}
}

func TestThreadSampleLeafAndStackString(t *testing.T) {
	ts := ThreadSample{Stack: []Frame{
		{Class: "sun.java2d.loops.DrawLine", Method: "DrawLine", Native: true},
		{Class: "javax.swing.JComponent", Method: "paint"},
	}}
	leaf, ok := ts.Leaf()
	if !ok || leaf.Class != "sun.java2d.loops.DrawLine" || !leaf.Native {
		t.Errorf("Leaf = %+v, %v", leaf, ok)
	}
	str := ts.StackString()
	if !strings.Contains(str, "(native)") || !strings.Contains(str, "at javax.swing.JComponent.paint") {
		t.Errorf("StackString = %q", str)
	}
	empty := ThreadSample{}
	if _, ok := empty.Leaf(); ok {
		t.Error("empty sample should have no leaf")
	}
	if empty.StackString() != "<no stack>" {
		t.Errorf("empty StackString = %q", empty.StackString())
	}
}

func TestSessionValidateRejectsBadSessions(t *testing.T) {
	mutate := []struct {
		name string
		fn   func(*Session)
		want string
	}{
		{"end before start", func(s *Session) { s.End = -1 }, "ends before"},
		{"non-dispatch root", func(s *Session) { s.Episodes[0].Root.Kind = KindPaint }, "want dispatch"},
		{"wrong index", func(s *Session) { s.Episodes[1].Index = 7 }, "carries index"},
		{"overlapping episodes", func(s *Session) {
			s.Episodes[1].Root.Start = s.Episodes[0].Root.End - 1
			s.Episodes[1].Root.Children = nil
		}, "overlaps"},
		{"episode escapes session", func(s *Session) {
			s.End = s.Episodes[1].Root.End - 1
		}, "escapes the session"},
		{"nil root", func(s *Session) { s.Episodes[0].Root = nil }, "no root"},
		{"unordered ticks", func(s *Session) { s.Ticks[3].Time = 0 }, "out of order"},
		{"invalid sample state", func(s *Session) { s.Ticks[0].Threads[0].State = 99 }, "invalid thread state"},
		{"bad session GC kind", func(s *Session) {
			s.GCs = append(s.GCs, NewInterval(KindPaint, "x", "y", 0, 1))
		}, "has kind"},
		{"negative session GC", func(s *Session) {
			s.GCs = append(s.GCs, &Interval{Kind: KindGC, Start: 10, End: 5})
		}, "ends before"},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			s := testSession()
			tc.fn(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a corrupted session")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestStudySessions(t *testing.T) {
	st := &Study{Suites: []*Suite{
		{App: "A", Sessions: []*Session{testSession(), testSession()}},
		{App: "B", Sessions: []*Session{testSession()}},
	}}
	if got := len(st.Sessions()); got != 3 {
		t.Errorf("Study.Sessions = %d, want 3", got)
	}
}
