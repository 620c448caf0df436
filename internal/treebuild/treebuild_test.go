package treebuild

import (
	"bytes"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

func ms(v float64) trace.Time { return trace.Time(trace.Ms(v)) }

func header() lila.Header {
	return lila.Header{
		App:             "App",
		SessionID:       1,
		GUIThread:       1,
		FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod:    10 * trace.Millisecond,
	}
}

func TestBuildSimpleEpisode(t *testing.T) {
	recs := []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "edt"},
		{Type: lila.RecCall, Time: ms(100), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(100), Thread: 1, Kind: trace.KindListener, Class: "app.B", Method: "on"},
		{Type: lila.RecCall, Time: ms(120), Thread: 1, Kind: trace.KindPaint, Class: "x.P", Method: "paint"},
		{Type: lila.RecReturn, Time: ms(180), Thread: 1},
		{Type: lila.RecReturn, Time: ms(200), Thread: 1},
		{Type: lila.RecReturn, Time: ms(200), Thread: 1},
		{Type: lila.RecEnd, Time: ms(1000), Count: 7},
	}
	s, diag, err := BuildRecords(header(), recs)
	if err != nil {
		t.Fatalf("BuildRecords: %v", err)
	}
	if len(s.Episodes) != 1 {
		t.Fatalf("got %d episodes, want 1", len(s.Episodes))
	}
	e := s.Episodes[0]
	if e.Dur() != trace.Ms(100) {
		t.Errorf("episode duration = %v, want 100ms", e.Dur())
	}
	if got := e.Root.Descendants(); got != 2 {
		t.Errorf("descendants = %d, want 2", got)
	}
	listener := e.Root.Children[0]
	if listener.Kind != trace.KindListener || listener.Class != "app.B" {
		t.Errorf("first child = %+v", listener)
	}
	if len(listener.Children) != 1 || listener.Children[0].Kind != trace.KindPaint {
		t.Errorf("nested paint missing: %+v", listener.Children)
	}
	if s.ShortCount != 7 {
		t.Errorf("ShortCount = %d, want 7 (from end record)", s.ShortCount)
	}
	if s.End != ms(1000) {
		t.Errorf("End = %v", s.End)
	}
	if *diag != (Diagnostics{}) {
		t.Errorf("diagnostics = %+v, want zero", *diag)
	}
}

func TestFilterDropsShortEpisodes(t *testing.T) {
	recs := []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "edt"},
		{Type: lila.RecCall, Time: ms(10), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: ms(11), Thread: 1}, // 1 ms < 3 ms
		{Type: lila.RecCall, Time: ms(20), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: ms(30), Thread: 1}, // 10 ms: kept
		{Type: lila.RecEnd, Time: ms(100), Count: 5},
	}
	s, diag, err := BuildRecords(header(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Episodes) != 1 {
		t.Fatalf("got %d episodes, want 1", len(s.Episodes))
	}
	if s.ShortCount != 6 {
		t.Errorf("ShortCount = %d, want 6 (5 from profiler + 1 filtered here)", s.ShortCount)
	}
	if diag.FilteredEpisodes != 1 {
		t.Errorf("FilteredEpisodes = %d, want 1", diag.FilteredEpisodes)
	}
}

func TestGCBroadcastIntoOpenIntervals(t *testing.T) {
	recs := []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "edt"},
		{Type: lila.RecThread, Thread: 2, Name: "worker"},
		// EDT inside an episode; worker inside a top-level native call.
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(0), Thread: 2, Kind: trace.KindNative, Class: "n.C", Method: "m"},
		{Type: lila.RecGCStart, Time: ms(10), Major: true},
		{Type: lila.RecGCEnd, Time: ms(50)},
		{Type: lila.RecReturn, Time: ms(60), Thread: 2},
		{Type: lila.RecReturn, Time: ms(100), Thread: 1},
		// Second GC while both threads are idle: session-wide only.
		{Type: lila.RecGCStart, Time: ms(150)},
		{Type: lila.RecGCEnd, Time: ms(160)},
		{Type: lila.RecEnd, Time: ms(200)},
	}
	s, diag, err := BuildRecords(header(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.GCs) != 2 {
		t.Fatalf("session GCs = %d, want 2", len(s.GCs))
	}
	if !s.GCs[0].Major || s.GCs[1].Major {
		t.Error("major flags lost")
	}
	// The episode tree must contain a GC copy.
	ep := s.Episodes[0]
	gc := ep.Root.FindKind(trace.KindGC)
	if gc == nil {
		t.Fatal("episode tree has no GC copy")
	}
	if gc.Start != ms(10) || gc.End != ms(50) {
		t.Errorf("GC copy spans [%v,%v]", gc.Start, gc.End)
	}
	if gc == s.GCs[0] {
		t.Error("episode GC must be a copy, not the session-wide instance")
	}
	// The worker's top-level native interval is an orphan (dropped),
	// so the second GC appears nowhere else.
	if diag.OrphanTopLevel != 1 {
		t.Errorf("OrphanTopLevel = %d, want 1", diag.OrphanTopLevel)
	}
}

func TestSampleTickGrouping(t *testing.T) {
	recs := []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "edt"},
		{Type: lila.RecThread, Thread: 2, Name: "w"},
		{Type: lila.RecSample, Time: ms(10), Thread: 1, State: trace.StateRunnable},
		{Type: lila.RecSample, Time: ms(10), Thread: 2, State: trace.StateWaiting},
		{Type: lila.RecSample, Time: ms(20), Thread: 1, State: trace.StateBlocked},
		{Type: lila.RecEnd, Time: ms(100)},
	}
	s, _, err := BuildRecords(header(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ticks) != 2 {
		t.Fatalf("ticks = %d, want 2", len(s.Ticks))
	}
	if len(s.Ticks[0].Threads) != 2 || len(s.Ticks[1].Threads) != 1 {
		t.Errorf("tick sizes = %d,%d; want 2,1", len(s.Ticks[0].Threads), len(s.Ticks[1].Threads))
	}
	if s.Ticks[0].Runnable() != 1 {
		t.Errorf("tick 0 runnable = %d, want 1", s.Ticks[0].Runnable())
	}
}

func TestDiagnostics(t *testing.T) {
	recs := []*lila.Record{
		// Thread 5 never declared.
		{Type: lila.RecCall, Time: ms(0), Thread: 5, Kind: trace.KindDispatch},
		{Type: lila.RecGCStart, Time: ms(10)},
		// Sample inside a GC bracket.
		{Type: lila.RecSample, Time: ms(15), Thread: 5, State: trace.StateRunnable},
		{Type: lila.RecGCEnd, Time: ms(20)},
		{Type: lila.RecReturn, Time: ms(30), Thread: 5},
		{Type: lila.RecEnd, Time: ms(100)},
	}
	s, diag, err := BuildRecords(header(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if diag.UndeclaredThreads != 1 {
		t.Errorf("UndeclaredThreads = %d, want 1", diag.UndeclaredThreads)
	}
	if diag.SamplesDuringGC != 1 {
		t.Errorf("SamplesDuringGC = %d, want 1", diag.SamplesDuringGC)
	}
	info, ok := s.ThreadByID(5)
	if !ok || info.Name != "thread-5" {
		t.Errorf("synthesized thread = %+v, %v", info, ok)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		recs []*lila.Record
		want string
	}{
		{
			"unmatched return",
			[]*lila.Record{{Type: lila.RecReturn, Time: ms(1), Thread: 1}},
			"no open interval",
		},
		{
			"time going backwards",
			[]*lila.Record{
				{Type: lila.RecCall, Time: ms(10), Thread: 1, Kind: trace.KindDispatch},
				{Type: lila.RecReturn, Time: ms(5), Thread: 1},
			},
			"not time-ordered",
		},
		{
			"nested gc",
			[]*lila.Record{
				{Type: lila.RecGCStart, Time: ms(1)},
				{Type: lila.RecGCStart, Time: ms(2)},
			},
			"nested gcstart",
		},
		{
			"gcend without start",
			[]*lila.Record{{Type: lila.RecGCEnd, Time: ms(1)}},
			"without gcstart",
		},
		{
			"open interval at end",
			[]*lila.Record{
				{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindDispatch},
				{Type: lila.RecEnd, Time: ms(10)},
			},
			"open interval",
		},
		{
			"open gc at end",
			[]*lila.Record{
				{Type: lila.RecGCStart, Time: ms(1)},
				{Type: lila.RecEnd, Time: ms(10)},
			},
			"collection open",
		},
		{
			"record after end",
			[]*lila.Record{
				{Type: lila.RecEnd, Time: ms(10)},
				{Type: lila.RecGCStart, Time: ms(20)},
			},
			"after end record",
		},
		{
			"no end record",
			[]*lila.Record{{Type: lila.RecThread, Thread: 1, Name: "t"}},
			"no end record",
		},
		{
			"duplicate thread",
			[]*lila.Record{
				{Type: lila.RecThread, Thread: 1, Name: "a"},
				{Type: lila.RecThread, Thread: 1, Name: "b"},
			},
			"duplicate declaration",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BuildRecords(header(), tc.recs)
			if err == nil {
				t.Fatal("BuildRecords accepted a malformed stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// randomSession builds a random but well-formed session for round-trip
// testing: random interval trees on the GUI thread with idle gaps,
// GCs both inside and outside episodes, and periodic samples.
func randomSession(r *rand.Rand) *trace.Session {
	s := &trace.Session{
		App:             "Rand",
		ID:              3,
		GUIThread:       1,
		FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod:    10 * trace.Millisecond,
		Threads: []trace.ThreadInfo{
			{ID: 1, Name: "edt"},
			{ID: 2, Name: "bg", Daemon: true},
		},
	}
	now := trace.Time(0)
	var genChildren func(parent *trace.Interval, depth int)
	genChildren = func(parent *trace.Interval, depth int) {
		if depth > 4 {
			return
		}
		cursor := parent.Start
		for cursor < parent.End && r.IntN(3) > 0 {
			gap := trace.Dur(r.Int64N(int64(trace.Ms(5))))
			cursor = cursor.Add(gap)
			remain := parent.End.Sub(cursor)
			if remain <= 0 {
				break
			}
			dur := trace.Dur(r.Int64N(int64(remain))) / 2
			if dur <= 0 {
				break
			}
			kinds := []trace.Kind{trace.KindListener, trace.KindPaint, trace.KindNative, trace.KindAsync}
			child := trace.NewInterval(kinds[r.IntN(len(kinds))], "c.C", "m", cursor, dur)
			parent.AddChild(child)
			genChildren(child, depth+1)
			cursor = child.End
		}
	}
	for i := 0; i < 20; i++ {
		now = now.Add(trace.Dur(r.Int64N(int64(trace.Ms(50)))) + trace.Ms(1))
		dur := trace.Dur(r.Int64N(int64(trace.Ms(300)))) + trace.Ms(4)
		root := trace.NewInterval(trace.KindDispatch, "", "", now, dur)
		genChildren(root, 0)
		s.Episodes = append(s.Episodes, &trace.Episode{Index: len(s.Episodes), Thread: 1, Root: root})
		now = root.End

		if r.IntN(4) == 0 {
			// GC after the episode, outside any interval.
			gcStart := now.Add(trace.Ms(0.5))
			gc := trace.NewGC(gcStart, trace.Ms(float64(1+r.IntN(20))), r.IntN(5) == 0)
			s.GCs = append(s.GCs, gc)
			now = gc.End
		}
	}
	s.End = now.Add(trace.Ms(100))
	for ts := trace.Time(trace.Ms(5)); ts < s.End; ts = ts.Add(10 * trace.Millisecond) {
		inGC := false
		for _, gc := range s.GCs {
			if gc.Contains(ts) {
				inGC = true
			}
		}
		if inGC {
			continue
		}
		s.Ticks = append(s.Ticks, trace.SampleTick{Time: ts, Threads: []trace.ThreadSample{
			{Thread: 1, State: trace.ThreadState(r.IntN(4)), Stack: []trace.Frame{{Class: "a.B", Method: "m"}}},
			{Thread: 2, State: trace.StateWaiting},
		}})
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// readSession decodes a trace in either encoding and rebuilds it.
func readSession(rd io.Reader) (*trace.Session, error) {
	lr, err := lila.NewReader(rd)
	if err != nil {
		return nil, err
	}
	s, _, err := BuildOptions(lr, Options{})
	return s, err
}

func TestRoundTripRandomSessions(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := rand.New(rand.NewPCG(seed, seed^0xdead))
		orig := randomSession(r)

		for _, format := range []lila.Format{lila.FormatText, lila.FormatV2} {
			var buf bytes.Buffer
			if err := lila.WriteSession(&buf, format, orig); err != nil {
				t.Fatalf("seed %d %v: WriteSession: %v", seed, format, err)
			}
			got, err := readSession(&buf)
			if err != nil {
				t.Fatalf("seed %d %v: readSession: %v", seed, format, err)
			}
			if got.App != orig.App || got.ID != orig.ID || got.End != orig.End {
				t.Errorf("seed %d %v: header fields differ", seed, format)
			}
			if len(got.Episodes) != len(orig.Episodes) {
				t.Fatalf("seed %d %v: %d episodes, want %d", seed, format, len(got.Episodes), len(orig.Episodes))
			}
			for i := range orig.Episodes {
				if !reflect.DeepEqual(got.Episodes[i].Root, orig.Episodes[i].Root) {
					t.Fatalf("seed %d %v: episode %d differs:\n got %s\nwant %s",
						seed, format, i, got.Episodes[i].Root.Outline(), orig.Episodes[i].Root.Outline())
				}
			}
			if len(got.Ticks) != len(orig.Ticks) {
				t.Fatalf("seed %d %v: %d ticks, want %d", seed, format, len(got.Ticks), len(orig.Ticks))
			}
			if !reflect.DeepEqual(got.Ticks, orig.Ticks) {
				t.Errorf("seed %d %v: ticks differ", seed, format)
			}
			if len(got.GCs) != len(orig.GCs) {
				t.Fatalf("seed %d %v: %d GCs, want %d", seed, format, len(got.GCs), len(orig.GCs))
			}
			for i := range orig.GCs {
				if got.GCs[i].Start != orig.GCs[i].Start || got.GCs[i].End != orig.GCs[i].End || got.GCs[i].Major != orig.GCs[i].Major {
					t.Errorf("seed %d %v: GC %d differs", seed, format, i)
				}
			}
		}
	}
}

func TestRoundTripPreservesGCCopies(t *testing.T) {
	// A GC inside an episode must come back as an embedded copy.
	root := trace.NewInterval(trace.KindDispatch, "", "", ms(0), trace.Ms(100))
	nat := root.AddChild(trace.NewInterval(trace.KindNative, "n.D", "draw", ms(10), trace.Ms(60)))
	nat.AddChild(trace.NewGC(ms(20), trace.Ms(30), true))
	s := &trace.Session{
		App: "G", GUIThread: 1, Start: 0, End: ms(200),
		Threads:         []trace.ThreadInfo{{ID: 1, Name: "edt"}},
		Episodes:        []*trace.Episode{{Index: 0, Thread: 1, Root: root}},
		GCs:             []*trace.Interval{trace.NewGC(ms(20), trace.Ms(30), true)},
		FilterThreshold: trace.DefaultFilterThreshold,
	}
	var buf bytes.Buffer
	if err := lila.WriteSession(&buf, lila.FormatV2, s); err != nil {
		t.Fatal(err)
	}
	got, err := readSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gc := got.Episodes[0].Root.FindKind(trace.KindGC)
	if gc == nil {
		t.Fatal("GC copy lost in round trip")
	}
	if gc.Start != ms(20) || gc.End != ms(50) || !gc.Major {
		t.Errorf("GC copy = %+v", gc)
	}
	// And it must be nested inside the native call, where it occurred.
	parent := got.Episodes[0].Root.Children[0]
	if parent.Kind != trace.KindNative || len(parent.Children) != 1 || parent.Children[0].Kind != trace.KindGC {
		t.Errorf("GC not nested in native call:\n%s", got.Episodes[0].Root.Outline())
	}
}
