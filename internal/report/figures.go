package report

import (
	"fmt"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/viz"
)

// Figure1Episode builds the episode of the paper's Figure 1: a
// 1705 ms dispatch entirely attributable to a JFrame.paint cascade
// (JRootPane → JLayeredPane → JToolBar, 1533/1347 ms), with an 843 ms
// native DrawLine call whose middle holds a 466 ms major collection,
// and a sampling gap covering almost the whole native call (the
// JVMTI GC bracket only spans the stopped-world phase; the GUI thread
// was still parked at the safepoint afterwards).
func Figure1Episode() (*trace.Session, *trace.Episode) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	root := trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(1705))
	jf := root.AddChild(trace.NewInterval(trace.KindPaint, "javax.swing.JFrame", "paint", 0, trace.Ms(1705)))
	rp := jf.AddChild(trace.NewInterval(trace.KindPaint, "javax.swing.JRootPane", "paint", ms(4), trace.Ms(1698)))
	lp := rp.AddChild(trace.NewInterval(trace.KindPaint, "javax.swing.JLayeredPane", "paint", ms(85), trace.Ms(1533)))
	tb := lp.AddChild(trace.NewInterval(trace.KindPaint, "javax.swing.JToolBar", "paint", ms(170), trace.Ms(1347)))
	nat := tb.AddChild(trace.NewInterval(trace.KindNative, "sun.java2d.loops.DrawLine", "DrawLine", ms(590), trace.Ms(843)))
	nat.AddChild(trace.NewGC(ms(780), trace.Ms(466), true))

	e := &trace.Episode{Index: 0, Thread: 1, Root: root}
	s := &trace.Session{
		App: "Figure1", GUIThread: 1, Start: 0, End: ms(1800),
		Threads:         []trace.ThreadInfo{{ID: 1, Name: "AWT-EventQueue-0"}},
		Episodes:        []*trace.Episode{e},
		GCs:             []*trace.Interval{trace.NewGC(ms(780), trace.Ms(466), true)},
		FilterThreshold: trace.DefaultFilterThreshold,
		SamplePeriod:    10 * trace.Millisecond,
	}
	paintStack := func(leafClass, leafMethod string, native bool) []trace.Frame {
		return []trace.Frame{
			{Class: leafClass, Method: leafMethod, Native: native},
			{Class: "javax.swing.JToolBar", Method: "paint"},
			{Class: "javax.swing.JLayeredPane", Method: "paint"},
			{Class: "javax.swing.JRootPane", Method: "paint"},
			{Class: "javax.swing.JFrame", Method: "paint"},
			{Class: "java.awt.EventDispatchThread", Method: "run"},
		}
	}
	for t := ms(5); t < s.End; t = t.Add(trace.Ms(10)) {
		// Sampling stops for almost the entire native call: the
		// sampler (a mutator) is stopped from shortly after the
		// native call begins until well after the GC bracket ends.
		if t >= ms(615) && t < ms(1400) {
			continue
		}
		stack := paintStack("sun.java2d.SunGraphics2D", "drawLine", false)
		if nat.Contains(t) {
			stack = paintStack("sun.java2d.loops.DrawLine", "DrawLine", true)
		}
		s.Ticks = append(s.Ticks, trace.SampleTick{Time: t, Threads: []trace.ThreadSample{{
			Thread: 1, State: trace.StateRunnable, Stack: stack,
		}}})
	}
	return s, e
}

// Figure1SVG renders the Figure 1 episode sketch.
func Figure1SVG() string {
	s, e := Figure1Episode()
	return viz.Sketch(s, e, viz.SketchOptions{Title: "Figure 1 — episode sketch: paint cascade with native DrawLine holding a major GC"})
}

// triggerRows converts per-app trigger shares into chart rows.
func triggerRows(res *StudyResult, long bool) []viz.BarRow {
	rows := make([]viz.BarRow, 0, len(res.Apps))
	for _, a := range res.Apps {
		ts := a.TriggerAll
		if long {
			ts = a.TriggerLong
		}
		rows = append(rows, viz.BarRow{Label: a.App, Values: []float64{
			ts.Frac(analysis.TriggerInput), ts.Frac(analysis.TriggerOutput),
			ts.Frac(analysis.TriggerAsync), ts.Frac(analysis.TriggerUnspecified),
		}})
	}
	return rows
}

// Figures renders every figure of the evaluation as named SVG
// documents (file name → content).
func Figures(res *StudyResult) map[string]string {
	out := make(map[string]string)

	out["figure1_sketch.svg"] = Figure1SVG()

	// Figure 2: the deepest episode the study's GanttProject sessions
	// produced.
	if gantt, ok := res.AppByName("GanttProject"); ok && gantt.Deepest != nil {
		e := gantt.Deepest.Episodes[0]
		out["figure2_ganttproject_sketch.svg"] = viz.Sketch(gantt.Deepest, e, viz.SketchOptions{
			Title: fmt.Sprintf("Figure 2 — GanttProject episode sketch: deep paint nesting (%d descendants, depth %d)",
				e.Root.Descendants(), e.Root.Depth()),
		})
	}

	series := make([]viz.CDFSeries, 0, len(res.Apps))
	for _, a := range res.Apps {
		series = append(series, viz.CDFSeries{Label: a.App, Points: a.CDF})
	}
	out["figure3_pattern_cdf.svg"] = viz.RenderCDF(viz.CDFChart{
		Title:  "Figure 3 — cumulative distribution of episodes into patterns",
		XLabel: "Patterns [%]",
		YLabel: "Cumulative Episodes Count [%]",
		Series: series,
	})

	occRows := make([]viz.BarRow, 0, len(res.Apps))
	occOrder := []patterns.Occurrence{patterns.OccAlways, patterns.OccSometimes, patterns.OccOnce, patterns.OccNever}
	for _, a := range res.Apps {
		fr := a.OccurrenceFracs()
		vals := make([]float64, len(occOrder))
		for i, occ := range occOrder {
			vals[i] = fr[occ]
		}
		occRows = append(occRows, viz.BarRow{Label: a.App, Values: vals})
	}
	out["figure4_occurrence.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title:      "Figure 4 — long-latency episodes in patterns",
		XLabel:     "Patterns [%]",
		Categories: []string{"Always", "Sometimes", "Once", "Never"},
		Colors:     []string{"#d65f5f", "#ee854a", "#d5bb67", "#6acc65"},
		Rows:       occRows,
	})

	trigCats := []string{"Input", "Output", "Asynchronous", "Unspecified"}
	trigColors := []string{"#4878cf", "#6acc65", "#956cb4", "#9e9e9e"}
	out["figure5_triggers_all.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 5 (upper) — triggers, all episodes", XLabel: "Episodes [%]",
		Categories: trigCats, Colors: trigColors, Rows: triggerRows(res, false),
	})
	out["figure5_triggers_long.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 5 (lower) — triggers, episodes ≥ 100 ms", XLabel: "Episodes >100ms [%]",
		Categories: trigCats, Colors: trigColors, Rows: triggerRows(res, true),
	})

	locRows := func(long bool) (lib, gcn []viz.BarRow) {
		for _, a := range res.Apps {
			loc := a.LocationAll
			if long {
				loc = a.LocationLong
			}
			lib = append(lib, viz.BarRow{Label: a.App, Values: []float64{loc.Library, loc.App}})
			gcn = append(gcn, viz.BarRow{Label: a.App, Values: []float64{loc.GC, loc.Native}})
		}
		return
	}
	libAll, gcnAll := locRows(false)
	libLong, gcnLong := locRows(true)
	out["figure6_location_all.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 6 (upper, samples) — RT library vs application, all episodes", XLabel: "Episodes - Time [%]",
		Categories: []string{"RT Library", "Application"}, Colors: []string{"#82c6e2", "#1b4f72"}, Rows: libAll,
	}) + viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 6 (upper, intervals) — GC and native time, all episodes", XLabel: "Episodes - Time [%]",
		Categories: []string{"GC", "Native"}, Colors: []string{"#d65f5f", "#ee854a"}, Rows: gcnAll, XMax: 0.7,
	})
	out["figure6_location_long.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 6 (lower, samples) — RT library vs application, episodes ≥ 100 ms", XLabel: "Episodes >100ms - Time [%]",
		Categories: []string{"RT Library", "Application"}, Colors: []string{"#82c6e2", "#1b4f72"}, Rows: libLong,
	}) + viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 6 (lower, intervals) — GC and native time, episodes ≥ 100 ms", XLabel: "Episodes >100ms - Time [%]",
		Categories: []string{"GC", "Native"}, Colors: []string{"#d65f5f", "#ee854a"}, Rows: gcnLong, XMax: 0.7,
	})

	concRows := func(long bool) []viz.BarRow {
		rows := make([]viz.BarRow, 0, len(res.Apps))
		for _, a := range res.Apps {
			v := a.ConcurrencyAll
			if long {
				v = a.ConcurrencyLong
			}
			rows = append(rows, viz.BarRow{Label: a.App, Values: []float64{v}})
		}
		return rows
	}
	out["figure7_concurrency_all.svg"] = viz.RenderBars(viz.Bars{
		Title: "Figure 7 (upper) — avg runnable threads, all episodes", XLabel: "Episodes",
		Rows: concRows(false), XMax: 2, Marker: 1,
	})
	out["figure7_concurrency_long.svg"] = viz.RenderBars(viz.Bars{
		Title: "Figure 7 (lower) — avg runnable threads, episodes ≥ 100 ms", XLabel: "Episodes >100ms",
		Rows: concRows(true), XMax: 2, Marker: 1,
	})

	causeRows := func(long bool) []viz.BarRow {
		rows := make([]viz.BarRow, 0, len(res.Apps))
		for _, a := range res.Apps {
			c := a.CausesAll
			if long {
				c = a.CausesLong
			}
			rows = append(rows, viz.BarRow{Label: a.App, Values: []float64{c.Blocked, c.Waiting, c.Sleeping}})
		}
		return rows
	}
	causeCats := []string{"Blocked", "Wait", "Sleeping"}
	causeColors := []string{"#c62828", "#ef6c00", "#1565c0"}
	out["figure8_causes_all.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 8 (upper) — blocked/wait/sleep, all episodes (runnable omitted)", XLabel: "Episodes - Time [%]",
		Categories: causeCats, Colors: causeColors, Rows: causeRows(false), XMax: 0.6,
	})
	out["figure8_causes_long.svg"] = viz.RenderStackedBars(viz.StackedBars{
		Title: "Figure 8 (lower) — blocked/wait/sleep, episodes ≥ 100 ms (runnable omitted)", XLabel: "Episodes >100ms - Time [%]",
		Categories: causeCats, Colors: causeColors, Rows: causeRows(true), XMax: 0.6,
	})

	return out
}
