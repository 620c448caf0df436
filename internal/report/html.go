package report

import (
	"fmt"
	"html"
	"sort"
	"strings"
)

// FormatHTML renders the complete study as one self-contained HTML
// page: every figure's SVG inline (hover tooltips intact), the tables
// in preformatted blocks, and the paper-vs-measured findings. The
// output needs nothing but a browser — the reproduction's stand-in for
// the paper's MATLAB chart pipeline plus GUI.
func FormatHTML(res *StudyResult) string { return FormatHTMLFigures(res, Figures(res)) }

// FormatHTMLFigures is FormatHTML with figs = Figures(res) from the caller.
func FormatHTMLFigures(res *StudyResult, figs map[string]string) string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>LagAlyzer — characterization study</title>
<style>
  body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto; max-width: 1100px; color: #222; }
  h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; border-bottom: 1px solid #ccc; }
  pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; font-size: 12px; line-height: 1.35; }
  figure { margin: 1em 0; } figcaption { font-size: 0.9em; color: #555; }
  table { border-collapse: collapse; font-size: 13px; }
  td, th { border: 1px solid #ccc; padding: 3px 8px; text-align: right; }
  td:first-child, th:first-child, td:nth-child(2), th:nth-child(2) { text-align: left; }
</style>
</head>
<body>
<h1>LagAlyzer — reproduction of the ISPASS 2010 characterization study</h1>
`)
	fmt.Fprintf(&b, "<p>%d applications × %d sessions (simulated; see DESIGN.md), %d traced episodes, perceptibility threshold %v.</p>\n",
		len(res.Apps), res.Config.sessions(), res.TotalEpisodes(), res.Config.threshold())

	section := func(title string, body func()) {
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(title))
		body()
	}
	pre := func(s string) {
		fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(s))
	}

	section("Table II — applications", func() { pre(FormatTable2()) })
	section("Table III — overall statistics (paper vs measured)", func() {
		pre(FormatTable3Comparison(res.Rows))
	})

	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	section("Figures", func() {
		for _, name := range names {
			fmt.Fprintf(&b, "<figure>%s<figcaption>%s</figcaption></figure>\n", figs[name], html.EscapeString(name))
		}
	})

	if res.Health.Degraded() {
		section("Health — inputs lost or degraded", func() { pre(FormatHealth(res.Health)) })
	}

	section("Section IV findings — paper vs measured", func() {
		b.WriteString("<table><tr><th>Experiment</th><th>Claim</th><th>Paper</th><th>Measured</th><th>Ratio</th></tr>\n")
		for _, f := range Findings(res) {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td><td>%.2f</td></tr>\n",
				html.EscapeString(f.ID), html.EscapeString(f.What), f.Paper, f.Measured, f.Ratio())
		}
		b.WriteString("</table>\n")
	})

	b.WriteString("</body>\n</html>\n")
	return b.String()
}
