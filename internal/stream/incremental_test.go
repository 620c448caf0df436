package stream

import (
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

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

	a := NewAnalyzer(0)
	var got []engine.EpisodeInfo
	a.Observe(func(_ *trace.Session, e *trace.Episode, info *engine.EpisodeInfo) {
		if e.End() <= e.Start() {
			t.Errorf("episode %d: non-positive span [%v, %v]", e.Index, e.Start(), e.End())
		}
		got = append(got, *info)
	})
	s, diag, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Episode: a.Episode})
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats(s, diag)

	if len(got) != st.Episodes {
		t.Fatalf("observed %d episodes, stats count %d", len(got), st.Episodes)
	}
	var ticks engine.TickTally
	var gc, native trace.Dur
	for i := range got {
		info := &got[i]
		for s, n := range info.Ticks.States {
			ticks.States[s] += n
		}
		ticks.Samples += info.Ticks.Samples
		ticks.Runnable += info.Ticks.Runnable
		ticks.Ticks += info.Ticks.Ticks
		gc += info.GC
		native += info.Native
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
