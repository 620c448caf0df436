package stream

import (
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// feedAll pushes records through an analyzer, failing the test on any
// record error (the crafted streams below are all well-formed).
func feedAll(t *testing.T, a *Analyzer, recs []*lila.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := a.Add(rec); err != nil {
			t.Fatalf("add %+v: %v", rec, err)
		}
	}
}

// TestObserveDeliversEpisodes: the Observe hook fires once per kept
// episode, and summing the delivered tick tallies over a whole
// simulated session reproduces the analyzer's own aggregate stats —
// the mergeability contract the ingest windows depend on.
func TestObserveDeliversEpisodes(t *testing.T) {
	profile, err := apps.ByName("Jmol")
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 21, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}

	a := NewAnalyzer(h, 0)
	var got []EpisodeResult
	a.Observe(func(er *EpisodeResult) { got = append(got, *er) })
	feedAll(t, a, recs)
	st := a.Stats()

	if len(got) != st.Episodes {
		t.Fatalf("observed %d episodes, stats count %d", len(got), st.Episodes)
	}
	var ticks engine.TickTally
	var gc, native trace.Dur
	for i := range got {
		er := &got[i]
		if er.End <= er.Start {
			t.Errorf("episode %d: non-positive span [%v, %v]", i, er.Start, er.End)
		}
		if er.Dur() != er.End.Sub(er.Start) {
			t.Errorf("episode %d: Dur() inconsistent", i)
		}
		for s, n := range er.Ticks.States {
			ticks.States[s] += n
		}
		ticks.Samples += er.Ticks.Samples
		ticks.Runnable += er.Ticks.Runnable
		ticks.Ticks += er.Ticks.Ticks
		gc += er.KindTime[trace.KindGC]
		native += er.KindTime[trace.KindNative]
	}
	if ticks.States != st.All.States || ticks.Samples != st.All.Samples {
		t.Errorf("summed causes %v/%d, stats %v/%d", ticks.States, ticks.Samples, st.All.States, st.All.Samples)
	}
	if ticks.Ticks != st.All.Ticks {
		t.Errorf("summed ticks %d, stats %d", ticks.Ticks, st.All.Ticks)
	}
	if ticks.Runnable != st.All.Runnable {
		t.Errorf("summed runnable %d, stats %d", ticks.Runnable, st.All.Runnable)
	}
	if gc != st.All.GC || native != st.All.Native {
		t.Errorf("summed kind time gc=%v native=%v, stats gc=%v native=%v",
			gc, native, st.All.GC, st.All.Native)
	}
}

// TestBuildTreesMaterializesRoots: with tree building on, each
// delivered episode carries an interval tree whose shape mirrors the
// record stream, and the open-node gauge returns to zero once every
// episode closes.
func TestBuildTreesMaterializesRoots(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}
	recs := []*lila.Record{
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "dispatch"},
		{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "l.L", Method: "on"},
		{Type: lila.RecCall, Time: ms(2), Thread: 1, Kind: trace.KindNative, Class: "n.N", Method: "c"},
		{Type: lila.RecReturn, Time: ms(10), Thread: 1},
		{Type: lila.RecReturn, Time: ms(30), Thread: 1},
		{Type: lila.RecReturn, Time: ms(50), Thread: 1},
		{Type: lila.RecEnd, Time: ms(100)},
	}

	a := NewAnalyzer(h, 0)
	a.BuildTrees(0)
	var roots []*trace.Interval
	a.Observe(func(er *EpisodeResult) {
		if er.TreeDropped {
			t.Error("tree dropped under an ample node budget")
		}
		roots = append(roots, er.Root)
	})
	feedAll(t, a, recs)

	if len(roots) != 1 || roots[0] == nil {
		t.Fatalf("got %d roots (nil-rooted?)", len(roots))
	}
	root := roots[0]
	if root.Kind != trace.KindDispatch || root.Start != ms(0) || root.End != ms(50) {
		t.Errorf("root = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Method != "on" {
		t.Fatalf("root children = %+v", root.Children)
	}
	leaf := root.Children[0].Children
	if len(leaf) != 1 || leaf[0].Kind != trace.KindNative || leaf[0].End != ms(10) {
		t.Errorf("leaf = %+v", leaf)
	}
	if n := a.TreeNodes(); n != 0 {
		t.Errorf("TreeNodes after close = %d, want 0", n)
	}
}

// TestBuildTreesNodeCap: an episode that exceeds the node budget loses
// its tree (Root nil, TreeDropped set) while its statistics — and any
// well-behaved sibling episode's tree — survive.
func TestBuildTreesNodeCap(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}
	var recs []*lila.Record
	recs = append(recs, &lila.Record{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "d"})
	// 8 sequential children blow a 4-node budget.
	for i := 0; i < 8; i++ {
		at := ms(float64(1 + 2*i))
		recs = append(recs,
			&lila.Record{Type: lila.RecCall, Time: at, Thread: 1, Kind: trace.KindNative, Class: "n.N", Method: "c"},
			&lila.Record{Type: lila.RecReturn, Time: at + trace.Time(trace.Ms(1)), Thread: 1})
	}
	recs = append(recs,
		&lila.Record{Type: lila.RecReturn, Time: ms(40), Thread: 1},
		// A second, small episode on the same thread keeps its tree.
		&lila.Record{Type: lila.RecCall, Time: ms(50), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "d"},
		&lila.Record{Type: lila.RecReturn, Time: ms(60), Thread: 1},
		&lila.Record{Type: lila.RecEnd, Time: ms(100)})

	a := NewAnalyzer(h, 0)
	a.BuildTrees(4)
	var results []EpisodeResult
	a.Observe(func(er *EpisodeResult) { results = append(results, *er) })
	feedAll(t, a, recs)
	st := a.Stats()

	if len(results) != 2 || st.Episodes != 2 {
		t.Fatalf("episodes: observed %d, stats %d, want 2", len(results), st.Episodes)
	}
	big, small := results[0], results[1]
	if !big.TreeDropped || big.Root != nil {
		t.Errorf("capped episode: dropped=%v root=%v, want dropped with nil root", big.TreeDropped, big.Root)
	}
	if big.Dur() != trace.Ms(40) {
		t.Errorf("capped episode still has stats: dur = %v, want 40ms", big.Dur())
	}
	if small.TreeDropped || small.Root == nil {
		t.Errorf("sibling episode lost its tree: dropped=%v root=%v", small.TreeDropped, small.Root)
	}
	if n := a.TreeNodes(); n != 0 {
		t.Errorf("TreeNodes after close = %d, want 0", n)
	}
}

// TestDropTreesMidStream: DropTrees during an open episode frees its
// partial tree immediately (the ingest memory-pressure path), marks it
// TreeDropped, and stops tree building for every later episode without
// disturbing aggregate statistics.
func TestDropTreesMidStream(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}

	a := NewAnalyzer(h, 0)
	a.BuildTrees(0)
	var results []EpisodeResult
	a.Observe(func(er *EpisodeResult) { results = append(results, *er) })

	feedAll(t, a, []*lila.Record{
		{Type: lila.RecCall, Time: ms(0), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "d"},
		{Type: lila.RecCall, Time: ms(1), Thread: 1, Kind: trace.KindListener, Class: "l.L", Method: "on"},
	})
	if a.TreeNodes() == 0 {
		t.Fatal("no retained nodes before the drop — test premise broken")
	}
	a.DropTrees()
	if n := a.TreeNodes(); n != 0 {
		t.Errorf("TreeNodes after DropTrees = %d, want 0", n)
	}
	feedAll(t, a, []*lila.Record{
		{Type: lila.RecReturn, Time: ms(10), Thread: 1},
		{Type: lila.RecReturn, Time: ms(30), Thread: 1},
		{Type: lila.RecCall, Time: ms(40), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "d"},
		{Type: lila.RecReturn, Time: ms(55), Thread: 1},
		{Type: lila.RecEnd, Time: ms(100)},
	})
	st := a.Stats()

	if len(results) != 2 || st.Episodes != 2 {
		t.Fatalf("episodes: observed %d, stats %d, want 2", len(results), st.Episodes)
	}
	if !results[0].TreeDropped || results[0].Root != nil {
		t.Errorf("open episode at drop time: dropped=%v root=%v", results[0].TreeDropped, results[0].Root)
	}
	if results[1].Root != nil {
		t.Error("episode after DropTrees still grew a tree")
	}
	if results[0].Dur() != trace.Ms(30) || results[1].Dur() != trace.Ms(15) {
		t.Errorf("episode durations %v, %v — stats disturbed by the drop", results[0].Dur(), results[1].Dur())
	}
}

// TestNowAndMinOpenStart: the window-flushing watermarks. Now tracks
// the last timed record; MinOpenStart tracks the earliest still-open
// episode and goes quiet when everything is closed.
func TestNowAndMinOpenStart(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	h := lila.Header{App: "t", GUIThread: 1, FilterThreshold: trace.DefaultFilterThreshold}
	a := NewAnalyzer(h, 0)

	if _, open := a.MinOpenStart(); open {
		t.Error("open episode on a fresh analyzer")
	}
	feedAll(t, a, []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "EDT"},
		{Type: lila.RecCall, Time: ms(5), Thread: 1, Kind: trace.KindDispatch, Class: "q.E", Method: "d"},
		{Type: lila.RecSample, Time: ms(12), Thread: 1, State: trace.StateRunnable},
	})
	if now := a.Now(); now != ms(12) {
		t.Errorf("Now = %v, want 12ms (thread records must not advance it)", now)
	}
	start, open := a.MinOpenStart()
	if !open || start != ms(5) {
		t.Errorf("MinOpenStart = %v/%v, want 5ms/open", start, open)
	}
	feedAll(t, a, []*lila.Record{
		{Type: lila.RecReturn, Time: ms(20), Thread: 1},
		{Type: lila.RecEnd, Time: ms(90)},
	})
	if _, open := a.MinOpenStart(); open {
		t.Error("episode still open after return")
	}
	if now := a.Now(); now != ms(90) {
		t.Errorf("Now = %v, want 90ms", now)
	}
}
