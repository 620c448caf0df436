package viz

import (
	"fmt"

	"lagalyzer/internal/trace"
)

// SketchOptions tune episode-sketch rendering.
type SketchOptions struct {
	// Title overrides the default "<app> episode #<n>" title.
	Title string
}

// Sketch renders an episode sketch (Section II-B, Figures 1 and 2):
// the episode's interval tree over a time axis, one row per nesting
// level, each interval colored by kind and labelled when wide enough,
// with the GUI thread's call-stack samples drawn as state-colored
// points along the top edge. Hovering an interval shows its symbol
// and duration; hovering a sample point shows the complete stack
// trace and thread state (as the paper's tooltip does).
//
// The session provides the samples; it may be nil, in which case only
// the interval tree is drawn. The drawing is 960 pixels wide.
func Sketch(s *trace.Session, e *trace.Episode, opt SketchOptions) string {
	const (
		width    = 960.0
		rowH     = 26.0
		topPad   = 26.0 // title
		sampleH  = 22.0 // sample track
		axisH    = 34.0
		leftPad  = 14.0
		rightPad = 14.0
	)
	depth := e.Root.Depth()
	height := topPad + sampleH + float64(depth)*rowH + axisH

	doc := newSVG(width, height)
	xs := linearScale{
		d0: float64(e.Start()), d1: float64(e.End()),
		r0: leftPad, r1: width - rightPad,
	}

	title := opt.Title
	if title == "" {
		app := "episode"
		if s != nil {
			app = s.App + " episode"
		}
		title = fmt.Sprintf("%s #%d — %v (starts at %.1f s)", app, e.Index, e.Dur(), e.Start().Seconds())
	}
	doc.text(leftPad, 17, 13, "start", "#222", title)

	// Sample track: one point per GUI-thread sample during the
	// episode, colored by state, tooltip with the full stack.
	trackY := topPad + sampleH/2
	if s != nil {
		for _, tick := range s.EpisodeTicks(e) {
			ts, ok := tick.Thread(e.Thread)
			if !ok {
				continue
			}
			tip := fmt.Sprintf("t=%v  state=%s\n%s", tick.Time, ts.State, ts.StackString())
			doc.circle(xs.at(float64(tick.Time)), trackY, 2.6, StateColor(ts.State), tip)
		}
	}

	// Interval tree: preorder walk, one row per depth.
	treeTop := topPad + sampleH
	e.Root.Walk(func(n *trace.Interval, d int) bool {
		x0 := xs.at(float64(n.Start))
		x1 := xs.at(float64(n.End))
		y := treeTop + float64(d)*rowH
		w := x1 - x0
		if w < 0.8 {
			w = 0.8
		}
		label := fmt.Sprintf("%s (%v)", n.Qualified(), n.Dur())
		doc.rect(x0, y+2, w, rowH-4, KindColor(n.Kind), "#555", label)
		if w > float64(len(label))*5.6 {
			doc.text(x0+4, y+rowH/2+4, 10, "start", "#111", label)
		}
		return true
	})

	// Time axis at the bottom, in session time.
	axisY := treeTop + float64(depth)*rowH + 12
	doc.line(leftPad, axisY, width-rightPad, axisY, "#333", 1)
	for _, tms := range niceTicks(e.Start().Ms(), e.End().Ms(), 8) {
		x := xs.at(tms * float64(trace.Millisecond))
		doc.line(x, axisY, x, axisY+4, "#333", 1)
		doc.text(x, axisY+15, 9.5, "middle", "#333", formatTick(tms)+" ms")
	}
	return doc.String()
}

// SketchText renders the plain-text sibling of an episode sketch: the
// interval outline plus a per-10ms sample-state strip, usable in a
// terminal.
func SketchText(s *trace.Session, e *trace.Episode) string {
	out := fmt.Sprintf("episode #%d  %v  [%v .. %v]\n", e.Index, e.Dur(), e.Start(), e.End())
	out += e.Root.Outline()
	if s == nil {
		return out
	}
	ticks := s.EpisodeTicks(e)
	if len(ticks) == 0 {
		return out
	}
	strip := make([]byte, 0, len(ticks))
	for _, tick := range ticks {
		ts, ok := tick.Thread(e.Thread)
		if !ok {
			strip = append(strip, ' ')
			continue
		}
		switch ts.State {
		case trace.StateRunnable:
			strip = append(strip, 'R')
		case trace.StateBlocked:
			strip = append(strip, 'B')
		case trace.StateWaiting:
			strip = append(strip, 'W')
		case trace.StateSleeping:
			strip = append(strip, 'S')
		}
	}
	out += "samples: " + string(strip) + "\n"
	return out
}
