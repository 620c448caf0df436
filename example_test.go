package lagalyzer_test

import (
	"fmt"

	"lagalyzer"
)

// buildSession assembles a tiny two-episode session by hand: a fast
// click and a slow paint that contains a garbage collection.
func buildSession() *lagalyzer.Session {
	ms := func(v float64) lagalyzer.Time { return lagalyzer.Time(lagalyzer.Ms(v)) }

	click := &lagalyzer.Interval{Kind: lagalyzer.KindDispatch, Start: ms(0), End: ms(30)}
	click.Children = []*lagalyzer.Interval{{
		Kind: lagalyzer.KindListener, Class: "app.Button", Method: "onClick",
		Start: ms(0), End: ms(25),
	}}

	repaint := &lagalyzer.Interval{Kind: lagalyzer.KindDispatch, Start: ms(1000), End: ms(1450)}
	paint := &lagalyzer.Interval{
		Kind: lagalyzer.KindPaint, Class: "app.Canvas", Method: "paint",
		Start: ms(1000), End: ms(1430),
	}
	paint.Children = []*lagalyzer.Interval{{
		Kind: lagalyzer.KindGC, Start: ms(1100), End: ms(1250), Major: true,
	}}
	repaint.Children = []*lagalyzer.Interval{paint}

	s := &lagalyzer.Session{
		App: "Demo", GUIThread: 1,
		Start: 0, End: lagalyzer.Time(5 * 1e9),
		Episodes: []*lagalyzer.Episode{
			{Index: 0, Thread: 1, Root: click},
			{Index: 1, Thread: 1, Root: repaint},
		},
		FilterThreshold: lagalyzer.FilterThreshold,
	}
	return s
}

// ExampleClassify groups episodes into structural patterns and shows
// the pattern browser's key statistics.
func ExampleClassify() {
	s := buildSession()
	set := lagalyzer.Classify([]*lagalyzer.Session{s})
	for _, p := range set.Patterns {
		fmt.Printf("%d episode(s), %s, gc in %.0f%%: %s\n",
			p.Count(), p.Occurrence(), p.GCFrac()*100, p.Canon)
	}
	// Output:
	// 1 episode(s), never, gc in 0%: dispatch(listener[app.Button.onClick])
	// 1 episode(s), always, gc in 100%: dispatch(paint[app.Canvas.paint])
}

// ExampleTriggerOf classifies what initiated an episode.
func ExampleTriggerOf() {
	s := buildSession()
	for _, e := range s.Episodes {
		fmt.Printf("episode %d (%v): %s\n", e.Index, e.Dur(), lagalyzer.TriggerOf(e))
	}
	// Output:
	// episode 0 (30.0ms): input
	// episode 1 (450.0ms): output
}

// ExampleLocation attributes episode time to GC and native code from
// the interval trees.
func ExampleLocation() {
	s := buildSession()
	loc := lagalyzer.Location([]*lagalyzer.Session{s},
		lagalyzer.PerceptibleThreshold, true /* perceptible episodes only */)
	fmt.Printf("of perceptible lag, %.1f%% was stop-the-world collection\n", loc.GC*100)
	// Output:
	// of perceptible lag, 33.3% was stop-the-world collection
}

// ExampleThresholdSweep shows how the perceptible-episode count moves
// across the HCI literature's thresholds.
func ExampleThresholdSweep() {
	s := buildSession()
	for _, p := range lagalyzer.ThresholdSweep([]*lagalyzer.Session{s}, nil) {
		fmt.Printf(">=%v: %d episode(s)\n", p.Threshold, p.Episodes)
	}
	// Output:
	// >=100.0ms: 1 episode(s)
	// >=150.0ms: 1 episode(s)
	// >=195.0ms: 1 episode(s)
	// >=225.0ms: 1 episode(s)
}

// ExampleFingerprint shows the canonical structural form behind
// pattern equality: timing and GC intervals are excluded, so the paint
// episode's collection does not show.
func ExampleFingerprint() {
	s := buildSession()
	e := s.Episodes[1]
	fmt.Println(lagalyzer.Fingerprint(e))
	fmt.Println("holds a GC interval:", e.Root.HasKind(lagalyzer.KindGC))
	// Output:
	// dispatch(paint[app.Canvas.paint])
	// holds a GC interval: true
}
