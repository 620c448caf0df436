package stream

import (
	"math"
	"strings"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// TestStreamingMatchesFullAnalysis is the package's core contract:
// on the same record stream, the single-pass analyzer must agree with
// treebuild + the batch engine.
func TestStreamingMatchesFullAnalysis(t *testing.T) {
	for _, app := range []string{"CrosswordSage", "Jmol", "Arabeske", "FindBugs"} {
		t.Run(app, func(t *testing.T) {
			profile, err := apps.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 9, SessionSeconds: 60})
			if err != nil {
				t.Fatal(err)
			}

			st, err := AnalyzeRecords(h, recs, 0)
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			session, _, err := treebuild.BuildRecords(h, recs)
			if err != nil {
				t.Fatalf("treebuild: %v", err)
			}
			th := trace.DefaultPerceptibleThreshold
			full := engine.Analyze(&trace.Suite{Sessions: []*trace.Session{session}}, th)

			if st.Episodes != len(session.Episodes) {
				t.Errorf("episodes: stream %d, full %d", st.Episodes, len(session.Episodes))
			}
			if st.ShortCount != session.ShortCount {
				t.Errorf("short: stream %d, full %d", st.ShortCount, session.ShortCount)
			}
			if st.Perceptible != len(session.PerceptibleEpisodes(th)) {
				t.Errorf("perceptible: stream %d, full %d", st.Perceptible, len(session.PerceptibleEpisodes(th)))
			}
			if st.InEpisode != session.InEpisode() {
				t.Errorf("in-episode: stream %v, full %v", st.InEpisode, session.InEpisode())
			}
			if st.E2E != session.E2E() {
				t.Errorf("E2E: stream %v, full %v", st.E2E, session.E2E())
			}

			if st.All.Trigger != full.TriggerAll {
				t.Errorf("triggers: stream %+v, full %+v", st.All.Trigger, full.TriggerAll)
			}
			if st.Long.Trigger != full.TriggerLong {
				t.Errorf("perceptible triggers: stream %+v, full %+v", st.Long.Trigger, full.TriggerLong)
			}

			loc := st.All.Location()
			if math.Abs(loc.GC-full.LocationAll.GC) > 1e-9 {
				t.Errorf("GC frac: stream %v, full %v", loc.GC, full.LocationAll.GC)
			}
			if math.Abs(loc.Native-full.LocationAll.Native) > 1e-9 {
				t.Errorf("native frac: stream %v, full %v", loc.Native, full.LocationAll.Native)
			}

			causes := st.All.Causes()
			for _, state := range trace.ThreadStates() {
				if got, want := causes.Frac(state), full.CausesAll.Frac(state); math.Abs(got-want) > 1e-9 {
					t.Errorf("cause %v: stream %v, full %v", state, got, want)
				}
			}

			conc, ticks := st.All.Concurrency()
			if ticks != full.TicksAll {
				t.Errorf("ticks: stream %d, full %d", ticks, full.TicksAll)
			}
			if math.Abs(conc-full.ConcurrencyAll) > 1e-9 {
				t.Errorf("concurrency: stream %v, full %v", conc, full.ConcurrencyAll)
			}

			// Duration summary sanity.
			if st.Durations.N != st.Episodes {
				t.Errorf("duration summary n = %d", st.Durations.N)
			}
			if st.Durations.Total == 0 && st.Episodes > 0 {
				t.Error("duration summary empty")
			}
		})
	}
}

// TestStreamPopulationMatchesEngine pins the streamed figures to the
// batch engine's all-episodes population exactly, on the two shapes
// where a stream-side rule once diverged: sub-filter episodes that
// are later dropped (a -materialize-short trace) and overlapping
// episodes on two event dispatch threads. Ticks inside a dropped
// episode must not count, and a tick inside two episodes counts once
// for each.
func TestStreamPopulationMatchesEngine(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	profile, err := apps.ByName("FindBugs")
	if err != nil {
		t.Fatal(err)
	}
	simRecs, simHeader, err := sim.Records(sim.Config{Profile: profile, Seed: 3, SessionSeconds: 60, MaterializeShort: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two EDTs with overlapping episodes, one tick inside both (the
	// treebuild multi-EDT fixture).
	multiRecs := []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "EDT-A"},
		{Type: lila.RecThread, Thread: 2, Name: "EDT-B"},
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "a.A", Method: "on"},
		{Type: lila.RecCall, Time: ms(50), Thread: 2, Kind: trace.KindDispatch},
		{Type: lila.RecCall, Time: ms(51), Thread: 2, Kind: trace.KindPaint, Class: "b.B", Method: "paint"},
		{Type: lila.RecSample, Time: ms(60), Thread: 1, State: trace.StateRunnable,
			Stack: []trace.Frame{{Class: "a.A", Method: "on"}}},
		{Type: lila.RecSample, Time: ms(60), Thread: 2, State: trace.StateSleeping,
			Stack: []trace.Frame{{Class: "java.lang.Thread", Method: "sleep", Native: true}}},
		{Type: lila.RecGCStart, Time: ms(70)},
		{Type: lila.RecGCEnd, Time: ms(90)},
		{Type: lila.RecReturn, Time: ms(110), Thread: 2},
		{Type: lila.RecReturn, Time: ms(120), Thread: 2},
		{Type: lila.RecReturn, Time: ms(190), Thread: 1},
		{Type: lila.RecReturn, Time: ms(200), Thread: 1},
		{Type: lila.RecEnd, Time: ms(1000)},
	}
	multiHeader := lila.Header{App: "multi", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}

	for _, tc := range []struct {
		name string
		h    lila.Header
		recs []*lila.Record
	}{
		{"materialized-short", simHeader, simRecs},
		{"overlapping-edts", multiHeader, multiRecs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := AnalyzeRecords(tc.h, tc.recs, 0)
			if err != nil {
				t.Fatal(err)
			}
			session, _, err := treebuild.BuildRecords(tc.h, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			full := engine.Analyze(&trace.Suite{Sessions: []*trace.Session{session}},
				trace.DefaultPerceptibleThreshold)

			conc, ticks := st.All.Concurrency()
			if conc != full.ConcurrencyAll || ticks != full.TicksAll {
				t.Errorf("concurrency: stream %v over %d ticks, engine %v over %d", conc, ticks, full.ConcurrencyAll, full.TicksAll)
			}
			if st.All.Trigger != full.TriggerAll {
				t.Errorf("triggers: stream %+v, engine %+v", st.All.Trigger, full.TriggerAll)
			}
			if c := st.All.Causes(); c != full.CausesAll {
				t.Errorf("causes: stream %+v, engine %+v", c, full.CausesAll)
			}
			if l := st.All.Location(); l != full.LocationAll {
				t.Errorf("location: stream %+v, engine %+v", l, full.LocationAll)
			}
			if ticks == 0 {
				t.Error("no in-episode ticks: fixture lost its premise")
			}
		})
	}
}

func TestAnalyzeFromReader(t *testing.T) {
	profile, _ := apps.ByName("SwingSet")
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 4, SessionSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Serialize and re-read through the binary codec.
	var sb strings.Builder
	w, err := lila.NewWriter(&sb, lila.FormatText, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := lila.NewReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Analyze(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.App != "SwingSet" || st.Episodes == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStreamTriggerRules(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}
	episode := func(body ...*lila.Record) []*lila.Record {
		recs := []*lila.Record{
			{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		}
		recs = append(recs, body...)
		recs = append(recs,
			&lila.Record{Type: lila.RecReturn, Time: ms(50), Thread: 1},
			&lila.Record{Type: lila.RecEnd, Time: ms(100)})
		return recs
	}
	cases := []struct {
		name string
		recs []*lila.Record
		want analysis.Trigger
	}{
		{"async with paint is output", episode(
			&lila.Record{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindAsync, Class: "q.E", Method: "d"},
			&lila.Record{Type: lila.RecCall, Time: ms(2), Thread: 1, Kind: trace.KindPaint, Class: "p.P", Method: "paint"},
			&lila.Record{Type: lila.RecReturn, Time: ms(10), Thread: 1},
			&lila.Record{Type: lila.RecReturn, Time: ms(20), Thread: 1},
		), analysis.TriggerOutput},
		{"async with listener stays async", episode(
			&lila.Record{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindAsync, Class: "q.E", Method: "d"},
			&lila.Record{Type: lila.RecCall, Time: ms(2), Thread: 1, Kind: trace.KindListener, Class: "l.L", Method: "on"},
			&lila.Record{Type: lila.RecReturn, Time: ms(10), Thread: 1},
			&lila.Record{Type: lila.RecReturn, Time: ms(20), Thread: 1},
		), analysis.TriggerAsync},
		{"paint after closed async stays async", episode(
			&lila.Record{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindAsync, Class: "q.E", Method: "d"},
			&lila.Record{Type: lila.RecReturn, Time: ms(10), Thread: 1},
			&lila.Record{Type: lila.RecCall, Time: ms(11), Thread: 1, Kind: trace.KindPaint, Class: "p.P", Method: "paint"},
			&lila.Record{Type: lila.RecReturn, Time: ms(20), Thread: 1},
		), analysis.TriggerAsync},
		{"native only is unspecified", episode(
			&lila.Record{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindNative, Class: "n.N", Method: "c"},
			&lila.Record{Type: lila.RecReturn, Time: ms(10), Thread: 1},
		), analysis.TriggerUnspecified},
		{"listener wins over later paint", episode(
			&lila.Record{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "l.L", Method: "on"},
			&lila.Record{Type: lila.RecReturn, Time: ms(10), Thread: 1},
			&lila.Record{Type: lila.RecCall, Time: ms(11), Thread: 1, Kind: trace.KindPaint, Class: "p.P", Method: "paint"},
			&lila.Record{Type: lila.RecReturn, Time: ms(20), Thread: 1},
		), analysis.TriggerInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := AnalyzeRecords(h, tc.recs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Episodes != 1 {
				t.Fatalf("episodes = %d", st.Episodes)
			}
			if st.All.Trigger.Counts[tc.want] != 1 {
				t.Errorf("trigger counts = %v, want one %v", st.All.Trigger.Counts, tc.want)
			}
		})
	}
}

func TestStreamErrors(t *testing.T) {
	h := lila.Header{App: "t", GUIThread: 1}
	cases := []struct {
		name string
		recs []*lila.Record
	}{
		{"gcend without start", []*lila.Record{{Type: lila.RecGCEnd, Time: 5}}},
		{"nested gc", []*lila.Record{
			{Type: lila.RecGCStart, Time: 1},
			{Type: lila.RecGCStart, Time: 2},
		}},
		{"bad type", []*lila.Record{{Type: 99}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AnalyzeRecords(h, tc.recs, 0); err == nil {
				t.Error("malformed stream accepted")
			}
		})
	}
	// Orphan returns on inactive threads are tolerated (they belong
	// to top-level non-dispatch intervals that never opened an
	// episode).
	if _, err := AnalyzeRecords(h, []*lila.Record{
		{Type: lila.RecCall, Time: 1, Thread: 2, Kind: trace.KindNative, Class: "n.N", Method: "m"},
		{Type: lila.RecReturn, Time: 2, Thread: 2},
		{Type: lila.RecEnd, Time: 10},
	}, 0); err != nil {
		t.Errorf("orphan interval rejected: %v", err)
	}
}

func TestStreamShortEpisodeFilter(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}
	recs := []*lila.Record{
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: ms(1), Thread: 1}, // 1 ms: filtered
		{Type: lila.RecCall, Time: ms(10), Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: ms(20), Thread: 1}, // kept
		{Type: lila.RecEnd, Time: ms(100), Count: 7},
	}
	st, err := AnalyzeRecords(h, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Episodes != 1 || st.ShortCount != 8 {
		t.Errorf("episodes=%d short=%d, want 1 and 8", st.Episodes, st.ShortCount)
	}
}

func TestStatsZeroValues(t *testing.T) {
	var st Stats
	loc := st.All.Location()
	conc, _ := st.All.Concurrency()
	if loc.GC != 0 || loc.Native != 0 || conc != 0 || st.All.Causes().Frac(trace.StateRunnable) != 0 {
		t.Error("zero stats should report zero fractions")
	}
}
