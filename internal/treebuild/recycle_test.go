package treebuild_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// recycleSession is a lenient stream that sends every tree release mode
// drops back to the builder: a root before the session start (with a
// GC copy), then rounds in which EDT-A and an overlapping EDT-B each
// handle an episode while a worker runs an orphan top-level interval, a
// GC lands in all three trees, and EDT-B handles a filtered short
// dispatch. Round longRound's EDT-A episode lasts 3 s, so its ticks
// span a dozen sample chunks. Each millisecond's tick samples three or
// four threads.
func recycleSession(rounds, longRound int) (lila.Header, []*lila.Record) {
	us := func(v int64) trace.Time { return trace.Time(v * 1000) }
	h := lila.Header{App: "recycle", GUIThread: 1, Start: us(100_000), SamplePeriod: trace.Ms(1),
		FilterThreshold: trace.DefaultFilterThreshold}
	r := rand.New(rand.NewSource(3))
	var recs []*lila.Record
	emit := func(rec *lila.Record) { recs = append(recs, rec) }
	// tree emits an interval [from, to] on th with random children that
	// keep every call and return outside the GC bracket [gcFrom, gcTo].
	var tree func(th trace.ThreadID, kind trace.Kind, from, to, gcFrom, gcTo int64, depth int)
	tree = func(th trace.ThreadID, kind trace.Kind, from, to, gcFrom, gcTo int64, depth int) {
		emit(&lila.Record{Type: lila.RecCall, Time: us(from), Thread: th, Kind: kind,
			Class: "app.C" + string(rune('a'+depth)), Method: "m" + string(rune('a'+r.Intn(4)))})
		at := from + 10
		for depth < 4 && at < to-20 && r.Intn(4) > 0 {
			end := at + 10 + r.Int63n(max(1, (to-at)/2))/10*10
			if end >= to {
				break
			}
			inGC := func(t int64) bool { return t >= gcFrom && t <= gcTo }
			if !inGC(at) && !inGC(end) {
				tree(th, trace.Kind(1+r.Intn(4)), at, end, gcFrom, gcTo, depth+1)
			}
			at = end + 10
		}
		emit(&lila.Record{Type: lila.RecReturn, Time: us(to), Thread: th})
	}
	gc := func(from, to int64) {
		emit(&lila.Record{Type: lila.RecGCStart, Time: us(from), Major: from%2 == 1})
		emit(&lila.Record{Type: lila.RecGCEnd, Time: us(to)})
	}
	for th := trace.ThreadID(1); th <= 4; th++ {
		emit(&lila.Record{Type: lila.RecThread, Thread: th, Name: "t" + string(rune('0'+th))})
	}
	// Before the start: a lenient build drops this root and its GC copy.
	tree(1, trace.KindDispatch, 50_000, 90_000, 60_001, 61_001, 1)
	gc(60_001, 61_001)

	base := int64(100_000)
	for round := 0; round < rounds; round++ {
		lenA := int64(40_000)
		if round == longRound {
			lenA = 3_000_000
		}
		gcFrom, gcTo := base+20_001, base+21_001
		tree(1, trace.KindDispatch, base, base+lenA, gcFrom, gcTo, 1)
		tree(2, trace.KindDispatch, base+5_000, base+30_000, gcFrom, gcTo, 1)
		tree(3, trace.KindListener, base+2_000, base+38_000, gcFrom, gcTo, 1)
		gc(gcFrom, gcTo)
		tree(2, trace.KindDispatch, base+32_000, base+33_000, gcFrom, gcTo, 1)
		for at := base + 3; at < base+lenA+10_000; at += 1000 {
			// Three or four samples a tick, so some ticks straddle a
			// chunk boundary and move to a fresh chunk.
			sampled := trace.ThreadID(3 + r.Intn(2))
			for th := trace.ThreadID(1); th <= sampled; th++ {
				stack := []trace.Frame{{Class: "app.S", Method: "run"}, {Class: "app.S" + string(rune('a'+r.Intn(3))), Method: "step"}}
				emit(&lila.Record{Type: lila.RecSample, Time: us(at), Thread: th,
					State: trace.ThreadState(r.Intn(4)), Stack: stack})
			}
		}
		base += lenA + 10_000
	}
	emit(&lila.Record{Type: lila.RecEnd, Time: us(base), Count: 2})
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return h, recs
}

// TestRecyclingMatchesFullBuild pins release mode's reuse of what it
// drops: every episode a hook copies out (tree and ticks) equals the
// full build's, though the builder rebuilt each tree from recycled
// nodes and each tick from recycled sample chunks. The diagnostics
// match too.
func TestRecyclingMatchesFullBuild(t *testing.T) {
	h, recs := recycleSession(60, 7)
	full, fdiag, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	type copied struct {
		thread trace.ThreadID
		root   *trace.Interval
		ticks  []trace.SampleTick
	}
	got := map[trace.Time]copied{}
	hook := func(s *trace.Session, e *trace.Episode) {
		ticks := append([]trace.SampleTick(nil), s.EpisodeTicks(e)...)
		for i := range ticks {
			ticks[i].Threads = append([]trace.ThreadSample(nil), ticks[i].Threads...)
			for j := range ticks[i].Threads {
				ticks[i].Threads[j].Stack = append([]trace.Frame(nil), ticks[i].Threads[j].Stack...)
			}
		}
		got[e.Start()] = copied{e.Thread, e.Root.Clone(), ticks}
	}
	_, rdiag, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Lenient: true, Episode: hook})
	if err != nil {
		t.Fatal(err)
	}

	want := *fdiag
	want.Records, want.Ticks, want.GCs = len(recs), len(full.Ticks), len(full.GCs)
	if !reflect.DeepEqual(*rdiag, want) {
		t.Errorf("release diagnostics %+v, want %+v", *rdiag, want)
	}
	// The stream reaches every recycling path.
	if fdiag.OrphanTopLevel == 0 || fdiag.FilteredEpisodes == 0 || fdiag.DroppedEpisodes == 0 {
		t.Errorf("stream misses a dropped-tree path: %+v", *fdiag)
	}
	if len(got) != len(full.Episodes) {
		t.Errorf("hook copied %d episodes, full build has %d", len(got), len(full.Episodes))
	}
	for _, e := range full.Episodes {
		c, ok := got[e.Start()]
		switch {
		case !ok:
			t.Errorf("episode at %v never reached the hook", e.Start())
		case c.thread != e.Thread || !reflect.DeepEqual(c.root, e.Root):
			t.Errorf("episode at %v on thread %d: hook's copy differs from the full build's tree", e.Start(), e.Thread)
		case !reflect.DeepEqual(c.ticks, full.EpisodeTicks(e)):
			t.Errorf("episode at %v on thread %d: hook's %d ticks differ from the full build's %d",
				e.Start(), e.Thread, len(c.ticks), len(full.EpisodeTicks(e)))
		}
	}
}

// TestReleaseAllocatesForWhatIsOpen: a release-mode build reuses what
// it drops, so a session four times longer allocates about as many
// objects as the short one, not four times as many.
func TestReleaseAllocatesForWhatIsOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 6-minute session")
	}
	allocs := func(seconds float64) float64 {
		recs, h, err := sim.Records(sim.Config{Profile: apps.Jmol(), Seed: 11, SessionSeconds: seconds})
		if err != nil {
			t.Fatal(err)
		}
		o := treebuild.Options{Episode: func(*trace.Session, *trace.Episode) {}}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := treebuild.BuildRecordsOptions(h, recs, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(90), allocs(360)
	if long > 1.5*short {
		t.Errorf("a 360 s session allocates %.0f objects, over 1.5× the 90 s session's %.0f", long, short)
	}
	t.Logf("90 s: %.0f allocs, 360 s: %.0f", short, long)
}
