package lila_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// The oracle: Flatten as it was first written, one heap record per
// event and a reflective stable sort with the nesting rules spelled
// out pairwise. It shares no code with the slab-and-total-order
// Flatten, so the tests below compare two independent derivations of
// the record stream.
func oracleFlatten(s *trace.Session) []*lila.Record {
	var recs []*lila.Record
	for _, t := range s.Threads {
		recs = append(recs, &lila.Record{Type: lila.RecThread, Thread: t.ID, Name: t.Name, Daemon: t.Daemon})
	}

	type event struct {
		rec   *lila.Record
		prio  int
		depth int
		seq   int
	}
	var events []event
	seq := 0
	add := func(rec *lila.Record, prio, depth int) {
		events = append(events, event{rec, prio, depth, seq})
		seq++
	}

	const (
		prioGCEnd = iota
		prioReturn
		prioSample
		prioCall
		prioGCStart
	)

	for _, e := range s.Episodes {
		e.Root.Walk(func(n *trace.Interval, depth int) bool {
			if n.Kind == trace.KindGC {
				return false
			}
			add(&lila.Record{Type: lila.RecCall, Time: n.Start, Thread: e.Thread, Kind: n.Kind, Class: n.Class, Method: n.Method}, prioCall, depth)
			add(&lila.Record{Type: lila.RecReturn, Time: n.End, Thread: e.Thread}, prioReturn, depth)
			return true
		})
	}
	for _, gc := range s.GCs {
		add(&lila.Record{Type: lila.RecGCStart, Time: gc.Start, Major: gc.Major}, prioGCStart, 0)
		add(&lila.Record{Type: lila.RecGCEnd, Time: gc.End}, prioGCEnd, 0)
	}
	for _, tick := range s.Ticks {
		for _, th := range tick.Threads {
			add(&lila.Record{Type: lila.RecSample, Time: tick.Time, Thread: th.Thread, State: th.State, Stack: th.Stack}, prioSample, 0)
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.rec.Time != b.rec.Time {
			return a.rec.Time < b.rec.Time
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		switch a.prio {
		case prioReturn:
			if a.depth != b.depth {
				return a.depth > b.depth
			}
		case prioCall:
			if a.depth != b.depth {
				return a.depth < b.depth
			}
		}
		return a.seq < b.seq
	})

	for _, ev := range events {
		recs = append(recs, ev.rec)
	}
	recs = append(recs, &lila.Record{Type: lila.RecEnd, Time: s.End, Count: s.ShortCount})
	return recs
}

// assertSameStream fails unless Flatten and the oracle agree record
// for record.
func assertSameStream(t *testing.T, name string, s *trace.Session) {
	t.Helper()
	got, want := lila.Flatten(s), oracleFlatten(s)
	if len(got) != len(want) {
		t.Fatalf("%s: Flatten gives %d records, the oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d: Flatten %+v, oracle %+v", name, i, *got[i], *want[i])
		}
	}
}

// randomSession builds a random, well-formed session: nested interval
// trees on the GUI thread, GCs between episodes, and periodic samples
// of two threads (the generator of treebuild's round-trip tests).
func randomSession(r *rand.Rand) *trace.Session {
	s := &trace.Session{
		App:             "Rand",
		ID:              3,
		GUIThread:       1,
		FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod:    10 * trace.Millisecond,
		Threads:         []trace.ThreadInfo{{ID: 1, Name: "edt"}, {ID: 2, Name: "bg", Daemon: true}},
	}
	kinds := []trace.Kind{trace.KindListener, trace.KindPaint, trace.KindNative, trace.KindAsync}
	var grow func(parent *trace.Interval, depth int)
	grow = func(parent *trace.Interval, depth int) {
		if depth > 4 {
			return
		}
		cursor := parent.Start
		for cursor < parent.End && r.IntN(3) > 0 {
			cursor = cursor.Add(trace.Dur(r.Int64N(int64(trace.Ms(5)))))
			remain := parent.End.Sub(cursor)
			if remain <= 0 {
				break
			}
			dur := trace.Dur(r.Int64N(int64(remain))) / 2
			if dur <= 0 {
				break
			}
			child := parent.AddChild(trace.NewInterval(kinds[r.IntN(len(kinds))], "c.C", "m", cursor, dur))
			grow(child, depth+1)
			cursor = child.End
		}
	}
	now := trace.Time(0)
	for i := 0; i < 20; i++ {
		now = now.Add(trace.Dur(r.Int64N(int64(trace.Ms(50)))) + trace.Ms(1))
		root := trace.NewInterval(trace.KindDispatch, "", "", now, trace.Dur(r.Int64N(int64(trace.Ms(300))))+trace.Ms(4))
		grow(root, 0)
		s.Episodes = append(s.Episodes, &trace.Episode{Index: len(s.Episodes), Thread: 1, Root: root})
		now = root.End
		if r.IntN(4) == 0 {
			gc := trace.NewGC(now.Add(trace.Ms(0.5)), trace.Ms(float64(1+r.IntN(20))), r.IntN(5) == 0)
			s.GCs = append(s.GCs, gc)
			now = gc.End
		}
	}
	s.End = now.Add(trace.Ms(100))
	for ts := trace.Time(trace.Ms(5)); ts < s.End; ts = ts.Add(10 * trace.Millisecond) {
		inGC := false
		for _, gc := range s.GCs {
			inGC = inGC || gc.Contains(ts)
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

func TestFlattenMatchesOracleRandomSessions(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		assertSameStream(t, fmt.Sprintf("random seed %d", seed), randomSession(rand.New(rand.NewPCG(seed, seed^0xdead))))
	}
}

// TestFlattenMatchesOracleTies hand-builds equal time stamps at every
// priority and several depths: returns at three depths, calls at three
// depths, GC end and start, and samples of two threads, all at 10 ms,
// on two episode threads so the seq tie-break decides between them.
func TestFlattenMatchesOracleTies(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	tie := ms(10)
	// Episode A closes three nested intervals at 10 ms.
	a := trace.NewInterval(trace.KindDispatch, "", "", ms(0), trace.Ms(10))
	al := a.AddChild(trace.NewInterval(trace.KindListener, "a.L", "act", ms(1), trace.Ms(9)))
	al.AddChild(trace.NewInterval(trace.KindPaint, "a.P", "paint", ms(2), trace.Ms(8)))
	// Episode B opens three nested intervals at 10 ms and two
	// siblings close and open at 20 ms.
	b := trace.NewInterval(trace.KindDispatch, "", "", tie, trace.Ms(30))
	bl := b.AddChild(trace.NewInterval(trace.KindListener, "b.L", "act", tie, trace.Ms(10)))
	bl.AddChild(trace.NewInterval(trace.KindNative, "b.N", "draw", tie, trace.Ms(10)))
	b.AddChild(trace.NewInterval(trace.KindPaint, "b.P", "paint", ms(20), trace.Ms(5)))
	b.AddChild(trace.NewInterval(trace.KindAsync, "b.A", "run", ms(25), trace.Ms(5)))
	// A background episode on thread 2 shares both boundaries.
	c := trace.NewInterval(trace.KindDispatch, "", "", ms(0), trace.Ms(10))
	c.AddChild(trace.NewInterval(trace.KindListener, "c.L", "act", ms(0), trace.Ms(10)))
	stack := []trace.Frame{{Class: "x.Y", Method: "z"}, {Class: "n.N", Method: "r", Native: true}}
	s := &trace.Session{
		App: "Ties", GUIThread: 1, End: ms(50),
		FilterThreshold: trace.DefaultFilterThreshold,
		Threads:         []trace.ThreadInfo{{ID: 1, Name: "edt"}, {ID: 2, Name: "bg"}},
		Episodes: []*trace.Episode{
			{Index: 0, Thread: 1, Root: a},
			{Index: 1, Thread: 1, Root: b},
			{Index: 2, Thread: 2, Root: c},
		},
		GCs: []*trace.Interval{trace.NewGC(ms(5), trace.Ms(5), false), trace.NewGC(tie, trace.Ms(0), true), trace.NewGC(ms(20), trace.Ms(5), false)},
		Ticks: []trace.SampleTick{
			{Time: tie, Threads: []trace.ThreadSample{{Thread: 1, State: trace.StateRunnable, Stack: stack}, {Thread: 2, State: trace.StateWaiting}}},
			{Time: ms(20), Threads: []trace.ThreadSample{{Thread: 1, State: trace.StateRunnable, Stack: stack[:1]}}},
		},
	}
	assertSameStream(t, "ties", s)
}

// TestFlattenMatchesOracleCatalog flattens one simulated session of
// every catalog application.
func TestFlattenMatchesOracleCatalog(t *testing.T) {
	for _, p := range apps.Catalog() {
		s, err := sim.Run(sim.Config{Profile: p, Seed: 42, SessionSeconds: 20})
		if err != nil {
			t.Fatal(err)
		}
		assertSameStream(t, p.Name, s)
	}
}

// TestV2BytesPinned pins the v2 encoding of one simulated session at
// seed 42 (NetBeans, whose three threads share sampled stacks): the
// size and SHA-256 of the raw and the flate file, recorded from the
// writer that buffered every Record until Close. The incremental
// writer, the event-list flatten, and the stack fast path must
// reproduce both byte for byte.
func TestV2BytesPinned(t *testing.T) {
	s, err := sim.Run(sim.Config{Profile: apps.NetBeans(), Seed: 42, SessionSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c    lila.Compression
		size int
		sum  string
	}{
		{lila.CompressionNone, 280288, "152bb4d5e44e346fb895ea50048cc62e5b837815e914a3c9f8ae3b95b9c83550"},
		{lila.CompressionFlate, 79142, "bc028d9548f13862f9d8f030dab99bd16ca8bb923f12881c83c440900cd98eed"},
	} {
		var buf bytes.Buffer
		if err := lila.WriteSessionOptions(&buf, lila.WriteOptions{Format: lila.FormatV2, Compression: tc.c}, s); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", tc.c, buf.Len(), got, tc.size, tc.sum)
		}
	}
}
