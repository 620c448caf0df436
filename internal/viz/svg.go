// Package viz renders LagAlyzer's visualizations: episode sketches
// (Figures 1 and 2 of the paper), stacked-bar characterization charts
// (Figures 4, 5, 6, 8), plain bar charts (Figure 7), and cumulative
// distribution line charts (Figure 3).
//
// Everything renders to self-contained SVG — the paper used MATLAB
// and a Swing GUI, neither of which exists here — plus plain-text
// fallbacks for terminals. Episode-sketch hover (full stack trace and
// thread state per sample, Section II-B) is implemented with native
// SVG <title> tooltips, so the output is interactive in any browser
// with no scripting.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// svgDoc is a minimal SVG document builder. It exists because the
// reproduction is stdlib-only; it covers exactly what the charts need
// (rects, lines, circles, polylines, text, groups, titles).
type svgDoc struct {
	w, h float64
	b    strings.Builder
}

func newSVG(w, h float64) *svgDoc {
	d := &svgDoc{w: w, h: h}
	fmt.Fprintf(&d.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" font-family="Helvetica,Arial,sans-serif">`,
		w, h, w, h)
	d.b.WriteByte('\n')
	return d
}

func (d *svgDoc) String() string { return d.b.String() + "</svg>\n" }

// escaper is shared: a Replacer builds its lookup tables on first use
// and is safe for concurrent use.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func esc(s string) string { return escaper.Replace(s) }

// rect draws a rectangle; title, when non-empty, becomes a hover
// tooltip.
func (d *svgDoc) rect(x, y, w, h float64, fill, stroke, title string) {
	if title == "" {
		fmt.Fprintf(&d.b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="0.5"/>`+"\n",
			x, y, w, h, fill, stroke)
		return
	}
	fmt.Fprintf(&d.b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="0.5"><title>%s</title></rect>`+"\n",
		x, y, w, h, fill, stroke, esc(title))
}

func (d *svgDoc) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&d.b, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (d *svgDoc) circle(cx, cy, r float64, fill, title string) {
	if title == "" {
		fmt.Fprintf(&d.b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>`+"\n", cx, cy, r, fill)
		return
	}
	fmt.Fprintf(&d.b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"><title>%s</title></circle>`+"\n",
		cx, cy, r, fill, esc(title))
}

// text draws a label; anchor is "start", "middle", or "end".
func (d *svgDoc) text(x, y float64, size float64, anchor, fill, s string) {
	fmt.Fprintf(&d.b, `<text x="%.2f" y="%.2f" font-size="%.1f" text-anchor="%s" fill="%s">%s</text>`+"\n",
		x, y, size, anchor, fill, esc(s))
}

func (d *svgDoc) polyline(points [][2]float64, stroke string, width float64) {
	var sb strings.Builder
	for i, p := range points {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f,%.2f", p[0], p[1])
	}
	fmt.Fprintf(&d.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>`+"\n",
		sb.String(), stroke, width)
}

// linearScale maps a data domain onto a pixel range.
type linearScale struct {
	d0, d1 float64
	r0, r1 float64
}

func (s linearScale) at(v float64) float64 {
	if s.d1 == s.d0 {
		return s.r0
	}
	return s.r0 + (v-s.d0)/(s.d1-s.d0)*(s.r1-s.r0)
}

// niceTicks returns ~n round tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo || n < 2 {
		return []float64{lo}
	}
	rawStep := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	var step float64
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		step = m * mag
		if step >= rawStep {
			break
		}
	}
	var ticks []float64
	for v := math.Ceil(lo/step) * step; v <= hi+step/1e6; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// formatTick renders a tick value compactly.
func formatTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2g", v)
}
