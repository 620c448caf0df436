package viz

import (
	"fmt"
	"math"
	"strings"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/trace"
)

// Timeline renders a whole-session trace timeline in the spirit of
// LiLa Viewer (which the paper's episode sketches extend): every
// traced episode appears as a bar at its position on the session's
// time axis, with height proportional to log-duration and color by
// trigger class; the perceptibility threshold is a reference line,
// and stop-the-world collections are marked along the bottom. Hovering
// a bar names the episode, its duration, and its trigger. The drawing
// is 1200 pixels wide.
func Timeline(s *trace.Session) string {
	const (
		width    = 1200.0
		topPad   = 44.0
		plotH    = 200.0
		gcLaneH  = 14.0
		axisH    = 34.0
		leftPad  = 52.0
		rightPad = 16.0
	)
	height := topPad + plotH + gcLaneH + axisH
	doc := newSVG(width, height)

	title := fmt.Sprintf("%s session %d — %d episodes over %v (+%d below the %v filter)",
		s.App, s.ID, len(s.Episodes), s.E2E(), s.ShortCount, s.FilterThreshold)
	doc.text(leftPad, 17, 13, "start", "#222", title)

	// Legend.
	lx := leftPad
	for _, tr := range analysis.Triggers() {
		doc.rect(lx, 24, 10, 10, triggerColor(tr), "#555", "")
		doc.text(lx+14, 33, 10, "start", "#222", tr.String())
		lx += 14 + float64(len(tr.String()))*6 + 16
	}

	xs := linearScale{d0: float64(s.Start), d1: float64(s.End), r0: leftPad, r1: width - rightPad}

	// Log-duration vertical scale: the filter threshold maps to the
	// baseline, 10 s to the top.
	minLog := math.Log10(math.Max(s.FilterThreshold.Ms(), 1))
	maxLog := math.Log10(10000)
	yFor := func(d trace.Dur) float64 {
		frac := (math.Log10(math.Max(d.Ms(), 1)) - minLog) / (maxLog - minLog)
		if frac < 0.02 {
			frac = 0.02
		}
		if frac > 1 {
			frac = 1
		}
		return topPad + plotH - frac*plotH
	}

	// Duration gridlines.
	for _, ms := range []float64{10, 100, 1000} {
		y := yFor(trace.Ms(ms))
		color := "#ddd"
		if trace.Ms(ms) == trace.DefaultPerceptibleThreshold {
			color = "#c62828"
		}
		doc.line(leftPad, y, width-rightPad, y, color, 0.8)
		doc.text(leftPad-4, y+3, 9, "end", "#333", formatTick(ms)+"ms")
	}

	baseline := topPad + plotH
	for _, e := range s.Episodes {
		x0 := xs.at(float64(e.Start()))
		x1 := xs.at(float64(e.End()))
		if x1-x0 < 0.7 {
			x1 = x0 + 0.7
		}
		tr := engine.TriggerOf(e)
		y := yFor(e.Dur())
		tip := fmt.Sprintf("episode #%d at %v: %v, %s", e.Index, e.Start(), e.Dur(), tr)
		doc.rect(x0, y, x1-x0, baseline-y, triggerColor(tr), "", tip)
	}

	// GC lane.
	gcY := baseline + 3
	for _, gc := range s.GCs {
		x0 := xs.at(float64(gc.Start))
		x1 := xs.at(float64(gc.End))
		if x1-x0 < 0.7 {
			x1 = x0 + 0.7
		}
		kind := "minor"
		if gc.Major {
			kind = "major"
		}
		doc.rect(x0, gcY, x1-x0, gcLaneH-5, KindColor(trace.KindGC), "",
			fmt.Sprintf("%s GC at %v: %v", kind, gc.Start, gc.Dur()))
	}
	doc.text(leftPad-4, gcY+8, 9, "end", "#333", "GC")

	// Time axis in seconds.
	axisY := baseline + gcLaneH + 6
	doc.line(leftPad, axisY, width-rightPad, axisY, "#333", 1)
	for _, ts := range niceTicks(s.Start.Seconds(), s.End.Seconds(), 10) {
		x := xs.at(ts * float64(trace.Second))
		doc.line(x, axisY, x, axisY+4, "#333", 1)
		doc.text(x, axisY+15, 9.5, "middle", "#333", formatTick(ts)+"s")
	}
	return doc.String()
}

// triggerColor maps a trigger class to its timeline color.
func triggerColor(t analysis.Trigger) string {
	switch t {
	case analysis.TriggerInput:
		return "#4878cf"
	case analysis.TriggerOutput:
		return "#6acc65"
	case analysis.TriggerAsync:
		return "#956cb4"
	default:
		return "#9e9e9e"
	}
}

// TimelineText renders a terminal session timeline: the session is
// divided into fixed-width buckets, each showing the worst episode
// duration in that bucket on a log scale ('.' imperceptible, '#'
// perceptible, '!' ≥ 1 s), with a second row marking GC activity.
func TimelineText(s *trace.Session, columns int) string {
	if columns <= 0 {
		columns = 100
	}
	e2e := s.E2E()
	if e2e <= 0 {
		return "(empty session)\n"
	}
	bucket := trace.Dur(int64(e2e) / int64(columns))
	if bucket <= 0 {
		bucket = 1
	}
	worst := make([]trace.Dur, columns)
	for _, e := range s.Episodes {
		i := int(int64(e.Start().Sub(s.Start)) / int64(bucket))
		if i >= columns {
			i = columns - 1
		}
		if e.Dur() > worst[i] {
			worst[i] = e.Dur()
		}
	}
	gc := make([]bool, columns)
	for _, g := range s.GCs {
		i := int(int64(g.Start.Sub(s.Start)) / int64(bucket))
		if i >= columns {
			i = columns - 1
		}
		gc[i] = true
	}

	var eps, gcs strings.Builder
	for i := 0; i < columns; i++ {
		switch {
		case worst[i] == 0:
			eps.WriteByte(' ')
		case worst[i] >= trace.Second:
			eps.WriteByte('!')
		case worst[i] >= trace.DefaultPerceptibleThreshold:
			eps.WriteByte('#')
		default:
			eps.WriteByte('.')
		}
		if gc[i] {
			gcs.WriteByte('g')
		} else {
			gcs.WriteByte(' ')
		}
	}
	return fmt.Sprintf("%s/%d  %v  (. episode, # >=100ms, ! >=1s)\n[%s]\n[%s] gc\n",
		s.App, s.ID, e2e, eps.String(), gcs.String())
}
