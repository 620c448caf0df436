package patterns_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
)

func ms(v float64) trace.Time { return trace.Time(trace.Ms(v)) }

// ep builds a dispatch episode with the given start, duration, and
// children.
func ep(start trace.Time, dur trace.Dur, children ...*trace.Interval) *trace.Episode {
	root := trace.NewInterval(trace.KindDispatch, "", "", start, dur)
	for _, c := range children {
		root.AddChild(c)
	}
	return &trace.Episode{Thread: 1, Root: root}
}

// sessionWith wraps episodes into a session (indices fixed up).
func sessionWith(eps ...*trace.Episode) *trace.Session {
	s := &trace.Session{App: "t", GUIThread: 1, Start: 0, End: ms(1e6), FilterThreshold: trace.DefaultFilterThreshold}
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

func TestFingerprintShapes(t *testing.T) {
	e := ep(0, trace.Ms(100),
		trace.NewInterval(trace.KindListener, "app.B", "on", 0, trace.Ms(60),
			trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(10), trace.Ms(20))),
		trace.NewInterval(trace.KindPaint, "x.Q", "paint", ms(70), trace.Ms(20)))

	got := engine.Fingerprint(e)
	want := "dispatch(listener[app.B.on](paint[x.P.paint]),paint[x.Q.paint])"
	if got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
}

func TestFingerprintExcludesTiming(t *testing.T) {
	fast := ep(0, trace.Ms(10),
		trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(5)))
	slow := ep(ms(1000), trace.Ms(900),
		trace.NewInterval(trace.KindListener, "a.B", "on", ms(1000), trace.Ms(900)))
	if engine.Fingerprint(fast) != engine.Fingerprint(slow) {
		t.Error("episodes differing only in timing must share a fingerprint")
	}
}

func TestFingerprintExcludesGCByDefault(t *testing.T) {
	withGC := ep(0, trace.Ms(100),
		trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(50),
			trace.NewGC(ms(10), trace.Ms(20), false)))
	withoutGC := ep(ms(1000), trace.Ms(100),
		trace.NewInterval(trace.KindListener, "a.B", "on", ms(1000), trace.Ms(50)))

	if engine.Fingerprint(withGC) != engine.Fingerprint(withoutGC) {
		t.Error("GC intervals must not affect fingerprints")
	}
	if strings.Contains(engine.Fingerprint(withGC), "gc") {
		t.Error("a fingerprint must not mention gc")
	}
}

func TestClassifyGroupsAndSorts(t *testing.T) {
	listener := func(start trace.Time, dur trace.Dur) *trace.Interval {
		return trace.NewInterval(trace.KindListener, "a.B", "on", start, dur)
	}
	paint := func(start trace.Time, dur trace.Dur) *trace.Interval {
		return trace.NewInterval(trace.KindPaint, "x.P", "paint", start, dur)
	}
	s := sessionWith(
		ep(ms(0), trace.Ms(10), listener(ms(0), trace.Ms(5))),
		ep(ms(100), trace.Ms(20), listener(ms(100), trace.Ms(5))),
		ep(ms(200), trace.Ms(30), listener(ms(200), trace.Ms(5))),
		ep(ms(300), trace.Ms(40), paint(ms(300), trace.Ms(5))),
		ep(ms(400), trace.Ms(50)), // unstructured
	)
	set := engine.Classify([]*trace.Session{s})
	if len(set.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(set.Patterns))
	}
	// Largest pattern first.
	if set.Patterns[0].Count() != 3 || set.Patterns[1].Count() != 1 {
		t.Errorf("pattern sizes = %d,%d; want 3,1", set.Patterns[0].Count(), set.Patterns[1].Count())
	}
	if set.Unstructured != 1 {
		t.Errorf("unstructured = %d, want 1", set.Unstructured)
	}
	if set.Covered() != 4 {
		t.Errorf("Covered = %d, want 4", set.Covered())
	}
	if got := set.SingletonFrac(); got != 0.5 {
		t.Errorf("SingletonFrac = %v, want 0.5", got)
	}

	p := set.Patterns[0]
	if p.MinLag() != trace.Ms(10) || p.MaxLag() != trace.Ms(30) || p.AvgLag() != trace.Ms(20) || p.TotalLag() != trace.Ms(60) {
		t.Errorf("lag stats: min=%v avg=%v max=%v total=%v", p.MinLag(), p.AvgLag(), p.MaxLag(), p.TotalLag())
	}
	if p.Descendants != 1 || p.Depth != 2 {
		t.Errorf("structure: descs=%d depth=%d, want 1,2", p.Descendants, p.Depth)
	}
}

func TestGCOnlyEpisodeIsUnstructured(t *testing.T) {
	s := sessionWith(
		ep(ms(0), trace.Ms(500), trace.NewGC(ms(10), trace.Ms(400), true)),
	)
	set := engine.Classify([]*trace.Session{s})
	if len(set.Patterns) != 0 || set.Unstructured != 1 {
		t.Errorf("GC-only episode should be unstructured: %d patterns, %d unstructured",
			len(set.Patterns), set.Unstructured)
	}
}

func TestOccurrenceClassification(t *testing.T) {
	mk := func(durs ...float64) *patterns.Pattern {
		var eps []*trace.Episode
		var start trace.Time
		for _, d := range durs {
			eps = append(eps, ep(start, trace.Ms(d), trace.NewInterval(trace.KindListener, "a.B", "on", start, trace.Ms(d/2))))
			start = start.Add(trace.Ms(d) + trace.Second)
		}
		return engine.Classify([]*trace.Session{sessionWith(eps...)}).Patterns[0]
	}
	cases := []struct {
		name string
		p    *patterns.Pattern
		want patterns.Occurrence
	}{
		{"all fast", mk(10, 20, 30), patterns.OccNever},
		{"all slow", mk(200, 300), patterns.OccAlways},
		{"perceptible singleton", mk(150), patterns.OccAlways},
		{"fast singleton", mk(50), patterns.OccNever},
		{"one of many", mk(500, 10, 10), patterns.OccOnce},
		{"some", mk(500, 400, 10), patterns.OccSometimes},
		{"exactly at threshold", mk(100), patterns.OccAlways},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Occurrence(); got != tc.want {
				t.Errorf("Occurrence = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOccurrenceCounts(t *testing.T) {
	listener := func(start trace.Time, dur trace.Dur, cls string) *trace.Interval {
		return trace.NewInterval(trace.KindListener, cls, "on", start, dur)
	}
	// patterns.Pattern A: two slow episodes (always). patterns.Pattern B: one fast
	// (never). patterns.Pattern C: slow then fast (once).
	s := sessionWith(
		ep(ms(0), trace.Ms(200), listener(ms(0), trace.Ms(100), "a.A")),
		ep(ms(1000), trace.Ms(300), listener(ms(1000), trace.Ms(100), "a.A")),
		ep(ms(2000), trace.Ms(10), listener(ms(2000), trace.Ms(5), "b.B")),
		ep(ms(3000), trace.Ms(400), listener(ms(3000), trace.Ms(100), "c.C")),
		ep(ms(4000), trace.Ms(10), listener(ms(4000), trace.Ms(5), "c.C")),
	)
	set := engine.Classify([]*trace.Session{s})
	counts := set.OccurrenceCounts()
	if counts[patterns.OccAlways] != 1 || counts[patterns.OccNever] != 1 || counts[patterns.OccOnce] != 1 || counts[patterns.OccSometimes] != 0 {
		t.Errorf("counts = %v", counts)
	}
	perceptible := set.Perceptible()
	if len(perceptible) != 2 {
		t.Errorf("Perceptible = %d patterns, want 2", len(perceptible))
	}
}

func TestCDFEndpointsAndMonotonicity(t *testing.T) {
	listener := func(start trace.Time, dur trace.Dur, cls string) *trace.Interval {
		return trace.NewInterval(trace.KindListener, cls, "on", start, dur)
	}
	var eps []*trace.Episode
	var start trace.Time
	add := func(cls string, n int) {
		for i := 0; i < n; i++ {
			eps = append(eps, ep(start, trace.Ms(10), listener(start, trace.Ms(5), cls)))
			start = start.Add(trace.Second)
		}
	}
	add("a.A", 8)
	add("b.B", 1)
	add("c.C", 1)
	set := engine.Classify([]*trace.Session{sessionWith(eps...)})
	curve := set.CDF()
	if curve[0].X != 0 || curve[0].Y != 0 {
		t.Errorf("curve starts at %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.X != 1 || last.Y != 1 {
		t.Errorf("curve ends at %+v", last)
	}
	// One third of the patterns (the big one) covers 80% of episodes.
	if got := curve[1].Y; got != 0.8 {
		t.Errorf("first pattern covers %v, want 0.8", got)
	}
}

func TestMeanStructureMetrics(t *testing.T) {
	deep := ep(ms(0), trace.Ms(50),
		trace.NewInterval(trace.KindPaint, "a.A", "paint", ms(0), trace.Ms(40),
			trace.NewInterval(trace.KindPaint, "b.B", "paint", ms(1), trace.Ms(30),
				trace.NewInterval(trace.KindPaint, "c.C", "paint", ms(2), trace.Ms(20)))))
	flat := ep(ms(1000), trace.Ms(50),
		trace.NewInterval(trace.KindListener, "l.L", "on", ms(1000), trace.Ms(40)))
	set := engine.Classify([]*trace.Session{sessionWith(deep, flat)})
	if got := set.MeanDescendants(); got != 2 { // (3+1)/2
		t.Errorf("MeanDescendants = %v, want 2", got)
	}
	if got := set.MeanDepth(); got != 3 { // (4+2)/2
		t.Errorf("MeanDepth = %v, want 3", got)
	}
}

func TestEmptySet(t *testing.T) {
	set := engine.Classify(nil)
	if set.SingletonFrac() != 0 || set.MeanDepth() != 0 || set.MeanDescendants() != 0 || set.Covered() != 0 {
		t.Error("empty set metrics should be zero")
	}
	if len(set.CDF()) != 1 {
		t.Error("empty CDF should be the origin point")
	}
}

func TestPatternIDStable(t *testing.T) {
	e := ep(0, trace.Ms(10), trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(5)))
	s1 := engine.Classify([]*trace.Session{sessionWith(e)})
	e2 := ep(0, trace.Ms(10), trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(5)))
	s2 := engine.Classify([]*trace.Session{sessionWith(e2)})
	if s1.Patterns[0].ID() != s2.Patterns[0].ID() {
		t.Error("identical structures must have identical IDs")
	}
	if !strings.HasPrefix(s1.Patterns[0].ID(), "p") {
		t.Errorf("ID format: %q", s1.Patterns[0].ID())
	}
}

func TestOccurrenceStringAndList(t *testing.T) {
	if patterns.OccAlways.String() != "always" || patterns.OccNever.String() != "never" ||
		patterns.OccOnce.String() != "once" || patterns.OccSometimes.String() != "sometimes" {
		t.Error("occurrence names wrong")
	}
	if patterns.Occurrence(9).String() != "occurrence(9)" {
		t.Error("out-of-range occurrence name")
	}
	if len(patterns.Occurrences()) != 4 {
		t.Error("Occurrences should list 4 classes")
	}
}

func TestMultiSessionClassification(t *testing.T) {
	// The same structure in two different sessions lands in one
	// pattern — LagAlyzer "integrates multiple traces in its
	// analysis".
	mk := func() *trace.Session {
		return sessionWith(ep(0, trace.Ms(10),
			trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(5))))
	}
	a, b := mk(), mk()
	set := engine.Classify([]*trace.Session{a, b})
	if len(set.Patterns) != 1 || set.Patterns[0].Count() != 2 {
		t.Fatalf("cross-session grouping failed: %d patterns", len(set.Patterns))
	}
	refs := set.Patterns[0].Episodes
	if refs[0].Session != a || refs[1].Session != b {
		t.Error("episode refs lost their sessions")
	}
	if set.Patterns[0].First().Session != a {
		t.Error("First should be the earliest-encountered episode")
	}
}

// TestPerceptibleCountMonotoneInThreshold: classifying at a higher
// threshold never increases a pattern's perceptible count, and the
// occurrence class can only move "down" the severity order (always →
// sometimes/once → never), never gain perceptible members. Each
// threshold gets its own pattern set, as each set answers only at the
// threshold it was built at.
func TestPerceptibleCountMonotoneInThreshold(t *testing.T) {
	listener := func(start trace.Time, dur trace.Dur) *trace.Interval {
		return trace.NewInterval(trace.KindListener, "a.B", "on", start, dur)
	}
	var eps []*trace.Episode
	var start trace.Time
	for _, d := range []float64{20, 90, 110, 150, 250, 600} {
		eps = append(eps, ep(start, trace.Ms(d), listener(start, trace.Ms(d/2))))
		start = start.Add(trace.Ms(d) + trace.Second)
	}
	suite := &trace.Suite{App: "t", Sessions: []*trace.Session{sessionWith(eps...)}}
	prev := len(eps) + 1
	for _, thMs := range []float64{50, 100, 150, 200, 300, 1000} {
		th := trace.Ms(thMs)
		set := engine.Analyze(suite, th).Pooled
		if set.Threshold != th || len(set.Patterns) != 1 {
			t.Fatalf("set at %v: threshold %v, %d patterns", th, set.Threshold, len(set.Patterns))
		}
		p := set.Patterns[0]
		k := p.PerceptibleCount()
		want := 0
		for _, e := range eps {
			if e.Perceptible(th) {
				want++
			}
		}
		if k != want {
			t.Fatalf("perceptible count %d at %v, want %d", k, th, want)
		}
		if k > prev {
			t.Fatalf("perceptible count increased from %d to %d at %v", prev, k, th)
		}
		prev = k
		// patterns.Occurrence consistency with the count.
		switch p.Occurrence() {
		case patterns.OccAlways:
			if k != p.Count() {
				t.Fatalf("always with %d of %d perceptible", k, p.Count())
			}
		case patterns.OccNever:
			if k != 0 {
				t.Fatalf("never with %d perceptible", k)
			}
		case patterns.OccOnce:
			if k != 1 {
				t.Fatalf("once with %d perceptible", k)
			}
		case patterns.OccSometimes:
			if k <= 1 || k >= p.Count() {
				t.Fatalf("sometimes with %d of %d perceptible", k, p.Count())
			}
		}
	}
}

// TestFingerprintDeterminesPattern: any two episodes land in the same
// pattern iff their fingerprints match, across random structures.
func TestFingerprintDeterminesPattern(t *testing.T) {
	r := stats.NewRand(5, 6)
	classes := []string{"a.A", "b.B", "c.C"}
	var eps []*trace.Episode
	var start trace.Time
	for i := 0; i < 60; i++ {
		dur := trace.Ms(10 + float64(r.IntN(100)))
		root := trace.NewInterval(trace.KindDispatch, "", "", start, dur)
		cursor := start
		for j := 0; j < 1+r.IntN(3); j++ {
			cd := dur / trace.Dur(6)
			child := trace.NewInterval(trace.KindListener, classes[r.IntN(len(classes))], "on", cursor, cd)
			if r.IntN(2) == 0 {
				child.AddChild(trace.NewInterval(trace.KindPaint, classes[r.IntN(len(classes))], "paint", cursor, cd/2))
			}
			root.AddChild(child)
			cursor = child.End
		}
		eps = append(eps, &trace.Episode{Index: i, Thread: 1, Root: root})
		start = start.Add(dur + trace.Second)
	}
	set := engine.Classify([]*trace.Session{sessionWith(eps...)})

	covered := 0
	for _, p := range set.Patterns {
		covered += p.Count()
		for _, ref := range p.Episodes {
			if got := engine.Fingerprint(ref.Episode); got != p.Canon {
				t.Fatalf("episode fingerprint %q in pattern %q", got, p.Canon)
			}
		}
	}
	if covered != len(eps) {
		t.Fatalf("covered %d of %d episodes", covered, len(eps))
	}
	// Cross-check: distinct patterns have distinct canons.
	seen := map[string]bool{}
	for _, p := range set.Patterns {
		if seen[p.Canon] {
			t.Fatalf("duplicate pattern canon %q", p.Canon)
		}
		seen[p.Canon] = true
	}
}

func TestPatternGCCoOccurrence(t *testing.T) {
	listener := func(start trace.Time, dur trace.Dur) *trace.Interval {
		return trace.NewInterval(trace.KindListener, "a.B", "on", start, dur)
	}
	// Three structurally identical episodes; two contain a GC.
	withGC := func(start trace.Time) *trace.Episode {
		l := listener(start, trace.Ms(50))
		l.AddChild(trace.NewGC(start.Add(trace.Ms(5)), trace.Ms(20), false))
		return ep(start, trace.Ms(80), l)
	}
	s := sessionWith(
		withGC(ms(0)),
		ep(ms(1000), trace.Ms(80), listener(ms(1000), trace.Ms(50))),
		withGC(ms(2000)),
	)
	set := engine.Classify([]*trace.Session{s})
	if len(set.Patterns) != 1 {
		t.Fatalf("GC exclusion should merge the episodes: %d patterns", len(set.Patterns))
	}
	p := set.Patterns[0]
	if p.GCCount() != 2 {
		t.Errorf("GCCount = %d, want 2", p.GCCount())
	}
	if got := p.GCFrac(); got < 0.66 || got > 0.67 {
		t.Errorf("GCFrac = %v, want 2/3", got)
	}
	if (&patterns.Pattern{}).GCFrac() != 0 {
		t.Error("empty pattern GCFrac should be 0")
	}
}

// TestPatternHashPinned pins the FNV-1a hash (and the derived ID)
// of known canonical forms to literal values, so the inline
// incremental hashing can never silently drift from the historical
// fnv.New64a-based IDs users may have bookmarked.
func TestPatternHashPinned(t *testing.T) {
	cases := []struct {
		eps   []*trace.Episode
		canon string
		hash  uint64
		id    string
	}{
		{
			eps: []*trace.Episode{ep(0, trace.Ms(100),
				trace.NewInterval(trace.KindListener, "app.B", "on", 0, trace.Ms(60),
					trace.NewInterval(trace.KindPaint, "x.P", "paint", ms(10), trace.Ms(20))),
				trace.NewInterval(trace.KindPaint, "x.Q", "paint", ms(70), trace.Ms(20)))},
			canon: "dispatch(listener[app.B.on](paint[x.P.paint]),paint[x.Q.paint])",
			hash:  9778156887012911536,
			id:    "pfde1c071a9b0",
		},
		{
			eps: []*trace.Episode{ep(0, trace.Ms(100),
				trace.NewInterval(trace.KindListener, "a.B", "on", 0, trace.Ms(50)))},
			canon: "dispatch(listener[a.B.on])",
			hash:  14046487528503647246,
			id:    "p25fc566a1c0e",
		},
		{
			// Intervals without symbols fingerprint by kind alone.
			eps: []*trace.Episode{ep(0, trace.Ms(100),
				trace.NewInterval(trace.KindListener, "", "", 0, trace.Ms(60),
					trace.NewInterval(trace.KindPaint, "", "", ms(10), trace.Ms(20))),
				trace.NewInterval(trace.KindPaint, "", "", ms(70), trace.Ms(20)))},
			canon: "dispatch(listener(paint),paint)",
			hash:  187986442237767471,
			id:    "pdcac582bef2f",
		},
	}
	for _, tc := range cases {
		set := engine.Classify([]*trace.Session{sessionWith(tc.eps...)})
		if len(set.Patterns) != 1 {
			t.Fatalf("want 1 pattern, got %d", len(set.Patterns))
		}
		p := set.Patterns[0]
		if p.Canon != tc.canon {
			t.Errorf("Canon = %q, want %q", p.Canon, tc.canon)
		}
		if p.Hash != tc.hash {
			t.Errorf("Hash(%q) = %d, want %d", tc.canon, p.Hash, tc.hash)
		}
		if p.ID() != tc.id {
			t.Errorf("ID(%q) = %q, want %q", tc.canon, p.ID(), tc.id)
		}
	}
}

// TestBuilderMergeOrderFree is the builder's merge property: two
// sessions cut into four pieces (one fed in reverse) give four
// builders that, merged in every order and in a tree shape, finish
// deeply equal to each other and to Classify's set less its member
// episodes.
func TestBuilderMergeOrderFree(t *testing.T) {
	var sessions []*trace.Session
	for id := 0; id < 2; id++ {
		s, err := sim.Run(sim.Config{Profile: apps.JEdit(), SessionID: id, Seed: 11, SessionSeconds: 40})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	type piece struct {
		s       *trace.Session
		eps     []*trace.Episode
		reverse bool
	}
	var pieces []piece
	for _, s := range sessions {
		half := len(s.Episodes) / 2
		pieces = append(pieces, piece{s, s.Episodes[:half], false}, piece{s, s.Episodes[half:], s.ID == 0})
	}
	build := func() []*patterns.Builder {
		ea := engine.NewEpisodeAnalyzer()
		bs := make([]*patterns.Builder, len(pieces))
		for i, pc := range pieces {
			bs[i] = patterns.NewBuilder(trace.DefaultPerceptibleThreshold)
			for j := range pc.eps {
				if pc.reverse {
					j = len(pc.eps) - 1 - j
				}
				e := pc.eps[j]
				if info := ea.Analyze(pc.s, e); info.Structured {
					bs[i].Add(info.Print, e.Dur())
				} else {
					bs[i].AddUnstructured()
				}
			}
		}
		return bs
	}

	want := engine.Classify(sessions)
	for _, p := range want.Patterns {
		p.Episodes = nil
	}
	if len(want.Patterns) < 20 {
		t.Fatalf("only %d patterns: too few to exercise merging", len(want.Patterns))
	}
	check := func(name string, got *patterns.Set) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged builders finish differently from Classify", name)
		}
	}
	var permute func(order, rest []int)
	permute = func(order, rest []int) {
		if len(rest) == 0 {
			bs := build()
			b := bs[order[0]]
			for _, i := range order[1:] {
				b.Merge(bs[i])
			}
			check(fmt.Sprint("order ", order), b.Finish())
			return
		}
		for k := range rest {
			next := append(append([]int(nil), rest[:k]...), rest[k+1:]...)
			permute(append(order, rest[k]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})

	bs := build()
	bs[3].Merge(bs[0])
	bs[1].Merge(bs[2])
	bs[1].Merge(bs[3])
	check("tree (1+2)+(3+0)", bs[1].Finish())
}

// TestBuilderDistinctCanons: two forms stay two patterns through Add
// and Merge, in either insertion order, and a merge leaves its source
// builder as it was.
func TestBuilderDistinctCanons(t *testing.T) {
	build := func(canons ...string) *patterns.Builder {
		b := patterns.NewBuilder(0)
		for i, c := range canons {
			b.Add(patterns.Print{Canon: []byte(c)}, trace.Ms(float64(10*(i+1))))
		}
		return b
	}
	ab, ba := build("a", "b", "a"), build("b", "a", "a")
	merged := patterns.NewBuilder(0)
	merged.Merge(ab)
	merged.Merge(ba)
	if got := ab.Patterns(); len(got) != 2 || got[0].Canon != "a" || got[0].Count() != 2 || got[1].Count() != 1 {
		t.Fatalf("distinct patterns: %+v", got)
	}
	if !reflect.DeepEqual(ab.Patterns(), build("a", "b", "a").Patterns()) {
		t.Error("a merge changed its source builder")
	}
	got := merged.Finish().Patterns
	if len(got) != 2 || got[0].Canon != "a" || got[0].Count() != 4 || got[0].MaxLag() != trace.Ms(30) ||
		got[1].Canon != "b" || got[1].Count() != 2 || got[1].MinLag() != trace.Ms(10) {
		t.Errorf("merged distinct patterns: %+v %+v", *got[0], *got[1])
	}
}
