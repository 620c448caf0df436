package browser

import (
	"strings"
	"testing"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

func ms(v float64) trace.Time { return trace.Time(trace.Ms(v)) }

// testSet builds a set with three patterns:
//   - "hot": 3 episodes (10, 200, 300 ms) → sometimes perceptible
//   - "cold": 2 episodes (5, 6 ms) → never perceptible
//   - "slowest": 1 episode (900 ms) → always perceptible
func testSet() *patterns.Set {
	var eps []*trace.Episode
	add := func(cls string, durs ...float64) {
		for _, d := range durs {
			start := trace.Time(len(eps)) * trace.Time(2*trace.Second)
			root := trace.NewInterval(trace.KindDispatch, "", "", start, trace.Ms(d))
			root.AddChild(trace.NewInterval(trace.KindListener, cls, "on", start, trace.Ms(d/2)))
			eps = append(eps, &trace.Episode{Index: len(eps), Thread: 1, Root: root})
		}
	}
	add("app.Hot", 10, 200, 300)
	add("app.Cold", 5, 6)
	add("app.Slowest", 900)
	s := &trace.Session{App: "t", GUIThread: 1, Start: 0, End: trace.Time(60 * trace.Second), Episodes: eps}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return engine.Classify([]*trace.Session{s})
}

func TestTableSortAndFilter(t *testing.T) {
	b := New(testSet())
	if b.Len() != 3 {
		t.Fatalf("view has %d patterns, want 3", b.Len())
	}
	// Default: by count descending → hot first.
	if got := b.Patterns()[0].Count(); got != 3 {
		t.Errorf("first pattern count = %d, want 3", got)
	}

	b.SetSort(SortByMaxLag)
	if got := b.Patterns()[0].MaxLag(); got != trace.Ms(900) {
		t.Errorf("max-lag sort: first max = %v, want 900ms", got)
	}
	b.SetSort(SortByTotalLag)
	if got := b.Patterns()[0].TotalLag(); got != trace.Ms(900) {
		t.Errorf("total-lag sort: first total = %v", got)
	}
	b.SetSort(SortByAvgLag)
	if got := b.Patterns()[0].AvgLag(); got != trace.Ms(900) {
		t.Errorf("avg-lag sort: first avg = %v", got)
	}

	b.SetPerceptibleOnly(true)
	if b.Len() != 2 {
		t.Fatalf("perceptible-only view has %d patterns, want 2", b.Len())
	}
	for _, p := range b.Patterns() {
		if p.PerceptibleCount() == 0 {
			t.Error("imperceptible pattern survived the filter")
		}
	}
	b.SetPerceptibleOnly(false)
	if b.Len() != 3 {
		t.Error("filter did not reset")
	}
}

func TestSelectionAndEpisodeCursor(t *testing.T) {
	b := New(testSet())
	if b.Selected() != nil {
		t.Error("fresh browser should have no selection")
	}
	if _, ok := b.Episode(); ok {
		t.Error("no episode without selection")
	}
	if err := b.Select(99); err == nil {
		t.Error("out-of-range selection accepted")
	}
	if err := b.Select(0); err != nil {
		t.Fatal(err)
	}
	p := b.Selected()
	if p.Count() != 3 {
		t.Fatalf("selected pattern has %d episodes", p.Count())
	}
	ref, ok := b.Episode()
	if !ok || ref.Episode != p.First().Episode {
		t.Error("selection should start at the pattern's first episode")
	}
	b.NextEpisode()
	if b.EpisodeIndex() != 1 {
		t.Errorf("after next, index = %d", b.EpisodeIndex())
	}
	b.NextEpisode()
	b.NextEpisode() // wraps
	if b.EpisodeIndex() != 0 {
		t.Errorf("episode cursor should wrap, index = %d", b.EpisodeIndex())
	}
	b.PrevEpisode()
	if b.EpisodeIndex() != 2 {
		t.Errorf("prev from 0 should wrap to 2, index = %d", b.EpisodeIndex())
	}
	// Cursor moves without selection are no-ops.
	b2 := New(testSet())
	b2.NextEpisode()
	b2.PrevEpisode()
}

func TestTableRendering(t *testing.T) {
	b := New(testSet())
	if err := b.Select(0); err != nil {
		t.Fatal(err)
	}
	table := b.Table(0)
	for _, want := range []string{"patterns: 3 shown / 3 total", "app.Hot", "sometimes", "always", "never", ">"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	limited := b.Table(1)
	if !strings.Contains(limited, "... 2 more") {
		t.Errorf("limited table should mention elided rows:\n%s", limited)
	}
}

func TestEpisodeListAndSketches(t *testing.T) {
	b := New(testSet())
	if got := b.EpisodeList(); !strings.Contains(got, "no pattern selected") {
		t.Errorf("unselected episode list = %q", got)
	}
	if _, ok := b.SketchSVG(); ok {
		t.Error("sketch without selection")
	}
	if err := b.Select(0); err != nil {
		t.Fatal(err)
	}
	list := b.EpisodeList()
	if !strings.Contains(list, "PERCEPTIBLE") {
		t.Errorf("episode list should flag perceptible episodes:\n%s", list)
	}
	if !strings.Contains(list, "t/0") {
		t.Errorf("episode list should name the session:\n%s", list)
	}
	svg, ok := b.SketchSVG()
	if !ok || !strings.Contains(svg, "<svg") {
		t.Error("SVG sketch failed")
	}
	txt, ok := b.SketchText()
	if !ok || !strings.Contains(txt, "dispatch") {
		t.Error("text sketch failed")
	}
}

func TestSortKeyParse(t *testing.T) {
	for _, k := range []SortKey{SortByCount, SortByTotalLag, SortByMaxLag, SortByAvgLag} {
		got, err := ParseSortKey(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseSortKey("bogus"); err == nil {
		t.Error("bogus sort key accepted")
	}
	if SortKey(9).String() != "sortkey(9)" {
		t.Error("unknown sort key name")
	}
}
