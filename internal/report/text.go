package report

import (
	"fmt"
	"strings"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/stats"
)

// FormatTable2 renders the application catalog (the paper's Table II).
func FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %8s  %s\n", "Application", "Version", "Classes", "Description")
	for _, p := range apps.Catalog() {
		fmt.Fprintf(&b, "%-14s %-10s %8d  %s\n", p.Name, p.Version, p.Classes, p.Description)
	}
	return b.String()
}

// FormatTable3 renders the measured overview statistics in the layout
// of the paper's Table III.
func FormatTable3(rows []analysis.Overview) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s | %6s %6s | %8s %6s %7s %8s | %5s %6s %7s %5s %5s\n",
		"Benchmarks", "E2E[s]", "InEps%", "<3ms", ">=3ms", ">=100ms", "Long/min",
		"Dist", "#Eps", "One-Ep%", "Descs", "Depth")
	fmt.Fprintln(&b, strings.Repeat("-", 118))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s | %6.0f %6.0f | %8.0f %6.0f %7.0f %8.0f | %5.0f %6.0f %7.0f %5.0f %5.0f\n",
			r.App, r.E2ESeconds, r.InEpsFrac*100, r.Short, r.Traced, r.Perceptible, r.LongPerMin,
			r.Dist, r.CoveredEps, r.OneEpFrac*100, r.Descs, r.Depth)
	}
	return b.String()
}

// FormatTable3Comparison renders measured rows side by side with the
// paper's published Table III.
func FormatTable3Comparison(rows []analysis.Overview) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s | %6s %6s | %8s %6s %7s %8s | %5s %7s %5s %5s\n",
		"Benchmarks", "", "E2E[s]", "InEps%", "<3ms", ">=3ms", ">=100ms", "Long/min",
		"Dist", "One-Ep%", "Descs", "Depth")
	fmt.Fprintln(&b, strings.Repeat("-", 112))
	for _, r := range rows {
		paper, ok := PaperRowFor(r.App)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-14s %-6s | %6.0f %6.0f | %8.0f %6.0f %7.0f %8.0f | %5.0f %7.0f %5.0f %5.0f\n",
			r.App, "paper", paper.E2E, paper.InEpsPct, paper.Short, paper.Traced, paper.Long,
			paper.LongPerMin, paper.Dist, paper.OneEpPct, paper.Descs, paper.Depth)
		fmt.Fprintf(&b, "%-14s %-6s | %6.0f %6.0f | %8.0f %6.0f %7.0f %8.0f | %5.0f %7.0f %5.0f %5.0f\n",
			"", "ours", r.E2ESeconds, r.InEpsFrac*100, r.Short, r.Traced, r.Perceptible,
			r.LongPerMin, r.Dist, r.OneEpFrac*100, r.Descs, r.Depth)
	}
	return b.String()
}

// FormatFigure3 renders the cumulative distribution of episodes into
// patterns as a per-application table of curve samples.
func FormatFigure3(res *StudyResult) string {
	var b strings.Builder
	xs := []float64{0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00}
	fmt.Fprintf(&b, "%-14s", "Benchmarks")
	for _, x := range xs {
		fmt.Fprintf(&b, " %5.0f%%", x*100)
	}
	fmt.Fprintln(&b, "   (episodes covered by top x% of patterns)")
	for _, a := range res.Apps {
		fmt.Fprintf(&b, "%-14s", a.App)
		for _, x := range xs {
			fmt.Fprintf(&b, " %5.1f%%", stats.ShareAt(a.CDF, x)*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFigure4 renders the occurrence classification bars.
func FormatFigure4(res *StudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %6s %7s   (%% of patterns)\n", "Benchmarks", "Always", "Sometimes", "Once", "Never")
	order := []patterns.Occurrence{patterns.OccAlways, patterns.OccSometimes, patterns.OccOnce, patterns.OccNever}
	for _, a := range res.Apps {
		fr := a.OccurrenceFracs()
		fmt.Fprintf(&b, "%-14s", a.App)
		for _, occ := range order {
			fmt.Fprintf(&b, " %7.1f%%", fr[occ]*100)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFigure5 renders both trigger panels.
func FormatFigure5(res *StudyResult) string {
	var b strings.Builder
	render := func(title string, pick func(*AppResult) analysis.TriggerShares) {
		fmt.Fprintf(&b, "%s\n%-14s %7s %7s %7s %12s\n", title, "Benchmarks", "Input", "Output", "Async", "Unspecified")
		for _, a := range res.Apps {
			ts := pick(a)
			fmt.Fprintf(&b, "%-14s %6.1f%% %6.1f%% %6.1f%% %11.1f%%\n", a.App,
				ts.Frac(analysis.TriggerInput)*100, ts.Frac(analysis.TriggerOutput)*100,
				ts.Frac(analysis.TriggerAsync)*100, ts.Frac(analysis.TriggerUnspecified)*100)
		}
	}
	render("Triggers, all episodes:", func(a *AppResult) analysis.TriggerShares { return a.TriggerAll })
	fmt.Fprintln(&b)
	render("Triggers, episodes >= 100ms:", func(a *AppResult) analysis.TriggerShares { return a.TriggerLong })
	return b.String()
}

// FormatFigure6 renders both location panels.
func FormatFigure6(res *StudyResult) string {
	var b strings.Builder
	render := func(title string, pick func(*AppResult) analysis.LocationShares) {
		fmt.Fprintf(&b, "%s\n%-14s %9s %7s | %6s %7s\n", title, "Benchmarks", "RTLib", "App", "GC", "Native")
		for _, a := range res.Apps {
			loc := pick(a)
			fmt.Fprintf(&b, "%-14s %8.1f%% %6.1f%% | %5.1f%% %6.1f%%\n", a.App,
				loc.Library*100, loc.App*100, loc.GC*100, loc.Native*100)
		}
	}
	render("Location, all episodes:", func(a *AppResult) analysis.LocationShares { return a.LocationAll })
	fmt.Fprintln(&b)
	render("Location, episodes >= 100ms:", func(a *AppResult) analysis.LocationShares { return a.LocationLong })
	return b.String()
}

// FormatFigure7 renders both concurrency panels.
func FormatFigure7(res *StudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %14s   (avg runnable threads)\n", "Benchmarks", "All episodes", ">=100ms")
	for _, a := range res.Apps {
		fmt.Fprintf(&b, "%-14s %12.2f %14.2f\n", a.App, a.ConcurrencyAll, a.ConcurrencyLong)
	}
	return b.String()
}

// FormatFigure8 renders both cause panels.
func FormatFigure8(res *StudyResult) string {
	var b strings.Builder
	render := func(title string, pick func(*AppResult) analysis.CauseShares) {
		fmt.Fprintf(&b, "%s\n%-14s %8s %8s %9s %9s\n", title, "Benchmarks", "Blocked", "Wait", "Sleeping", "Runnable")
		for _, a := range res.Apps {
			c := pick(a)
			fmt.Fprintf(&b, "%-14s %7.1f%% %7.1f%% %8.1f%% %8.1f%%\n", a.App,
				c.Blocked*100, c.Waiting*100, c.Sleeping*100, c.Runnable*100)
		}
	}
	render("Causes, all episodes:", func(a *AppResult) analysis.CauseShares { return a.CausesAll })
	fmt.Fprintln(&b)
	render("Causes, episodes >= 100ms:", func(a *AppResult) analysis.CauseShares { return a.CausesLong })
	return b.String()
}

// FormatAll renders the complete study output (every table and
// figure), the payload of cmd/lagreport.
func FormatAll(res *StudyResult) string {
	var b strings.Builder
	sections := []struct{ title, body string }{
		{"Table II: applications", FormatTable2()},
		{"Table III: overall statistics", FormatTable3(res.Rows)},
		{"Figure 3: cumulative distribution of episodes into patterns", FormatFigure3(res)},
		{"Figure 4: long-latency episodes in patterns", FormatFigure4(res)},
		{"Figure 5: triggers of (perceptible) episodes", FormatFigure5(res)},
		{"Figure 6: location where time was spent", FormatFigure6(res)},
		{"Figure 7: concurrency in episodes", FormatFigure7(res)},
		{"Figure 8: synchronization and sleep during episodes", FormatFigure8(res)},
	}
	if res.Health.Degraded() {
		sections = append(sections, struct{ title, body string }{
			"Health: inputs lost or degraded", FormatHealth(res.Health)})
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", s.title, s.body)
	}
	return b.String()
}
