package viz

import (
	"strings"
	"testing"

	"lagalyzer/internal/trace"
)

func timelineSession() *trace.Session {
	s := &trace.Session{
		App: "TL", ID: 1, GUIThread: 1, Start: 0, End: trace.Time(10 * trace.Second),
		FilterThreshold: trace.DefaultFilterThreshold,
		ShortCount:      500,
	}
	add := func(start trace.Time, dur trace.Dur, child *trace.Interval) {
		root := trace.NewInterval(trace.KindDispatch, "", "", start, dur)
		if child != nil {
			root.AddChild(child)
		}
		s.Episodes = append(s.Episodes, &trace.Episode{Index: len(s.Episodes), Thread: 1, Root: root})
	}
	add(trace.Time(trace.Second), trace.Ms(20),
		trace.NewInterval(trace.KindListener, "a.B", "on", trace.Time(trace.Second), trace.Ms(10)))
	add(trace.Time(3*trace.Second), trace.Ms(250),
		trace.NewInterval(trace.KindPaint, "p.P", "paint", trace.Time(3*trace.Second), trace.Ms(200)))
	add(trace.Time(6*trace.Second), 2*trace.Second, nil) // unspecified, ≥1s
	s.GCs = []*trace.Interval{
		trace.NewGC(trace.Time(2*trace.Second), trace.Ms(30), false),
		trace.NewGC(trace.Time(5*trace.Second), trace.Ms(300), true),
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func TestTimelineSVG(t *testing.T) {
	s := timelineSession()
	svg := Timeline(s)
	for _, want := range []string{
		"<svg", "TL session 1", "3 episodes",
		"episode #0", "episode #1", "episode #2",
		"input", "output", "unspecified", // legend
		"major GC", "minor GC",
		"100ms", // threshold gridline label
		"s</text>",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// Episode bars carry trigger colors.
	if !strings.Contains(svg, triggerColor(0)) || !strings.Contains(svg, triggerColor(1)) {
		t.Error("trigger colors missing")
	}
}

func TestTimelineWidth(t *testing.T) {
	svg := Timeline(timelineSession())
	if !strings.Contains(svg, `width="1200"`) {
		t.Error("timeline is not 1200 pixels wide")
	}
}

func TestTimelineText(t *testing.T) {
	s := timelineSession()
	txt := TimelineText(s, 50)
	lines := strings.Split(strings.TrimRight(txt, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline text has %d lines:\n%s", len(lines), txt)
	}
	if !strings.Contains(lines[0], "TL/1") {
		t.Errorf("header: %q", lines[0])
	}
	body := lines[1]
	if !strings.Contains(body, ".") {
		t.Error("no imperceptible marker")
	}
	if !strings.Contains(body, "#") {
		t.Error("no perceptible marker")
	}
	if !strings.Contains(body, "!") {
		t.Error("no >=1s marker")
	}
	if !strings.Contains(lines[2], "g") {
		t.Error("no GC marker")
	}

	empty := &trace.Session{App: "e", Start: 0, End: 0}
	if got := TimelineText(empty, 10); !strings.Contains(got, "empty") {
		t.Errorf("empty session: %q", got)
	}
	// Default column count.
	if got := TimelineText(s, 0); len(got) == 0 {
		t.Error("default columns failed")
	}
}
