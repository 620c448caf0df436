// Package browser implements LagAlyzer's pattern browser (Section
// II-E of the paper) as a UI-toolkit-independent model plus a plain
// text renderer.
//
// The browser presents a table of patterns with, for each pattern, the
// number of episodes and the minimum, average, maximum, and total lag
// over the pattern's episodes. The developer can elide patterns that
// have no perceptible episodes, select a pattern to reveal its episode
// list and the sketch of its first episode, and step through the
// episodes' sketches to grasp the timing variation within the pattern.
package browser

import (
	"fmt"
	"sort"
	"strings"

	"lagalyzer/internal/patterns"
	"lagalyzer/internal/viz"
)

// SortKey selects the pattern table's ordering.
type SortKey int

const (
	// SortByCount orders by episode count, descending.
	SortByCount SortKey = iota
	// SortByTotalLag orders by total lag, descending — the "where
	// does the time go" view.
	SortByTotalLag
	// SortByMaxLag orders by worst episode, descending.
	SortByMaxLag
	// SortByAvgLag orders by average lag, descending.
	SortByAvgLag
)

// String names the sort key.
func (k SortKey) String() string {
	switch k {
	case SortByCount:
		return "count"
	case SortByTotalLag:
		return "total"
	case SortByMaxLag:
		return "max"
	case SortByAvgLag:
		return "avg"
	default:
		return fmt.Sprintf("sortkey(%d)", int(k))
	}
}

// ParseSortKey recognises the names of String.
func ParseSortKey(s string) (SortKey, error) {
	for _, k := range []SortKey{SortByCount, SortByTotalLag, SortByMaxLag, SortByAvgLag} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("browser: unknown sort key %q (want count, total, max, or avg)", s)
}

// Browser is the pattern-browser model: a view over a pattern set with
// sorting, perceptibility filtering, and a selection cursor.
type Browser struct {
	set *patterns.Set

	sortKey         SortKey
	perceptibleOnly bool

	view     []*patterns.Pattern // current table, post filter/sort
	selected int                 // index into view, -1 when nothing selected
	episode  int                 // index into the selected pattern's episodes
}

// New builds a browser over a classified pattern set; filtering and
// occurrence display use the set's threshold.
func New(set *patterns.Set) *Browser {
	b := &Browser{set: set, selected: -1}
	b.rebuild()
	return b
}

func (b *Browser) rebuild() {
	b.view = b.view[:0]
	for _, p := range b.set.Patterns {
		if b.perceptibleOnly && p.PerceptibleCount() == 0 {
			continue
		}
		b.view = append(b.view, p)
	}
	key := b.sortKey
	sort.SliceStable(b.view, func(i, j int) bool {
		a, c := b.view[i], b.view[j]
		switch key {
		case SortByTotalLag:
			return a.TotalLag() > c.TotalLag()
		case SortByMaxLag:
			return a.MaxLag() > c.MaxLag()
		case SortByAvgLag:
			return a.AvgLag() > c.AvgLag()
		default:
			return a.Count() > c.Count()
		}
	})
	b.selected = -1
	b.episode = 0
}

// SetSort reorders the table.
func (b *Browser) SetSort(k SortKey) {
	b.sortKey = k
	b.rebuild()
}

// SetPerceptibleOnly toggles the "elide patterns without perceptible
// episodes" filter.
func (b *Browser) SetPerceptibleOnly(on bool) {
	b.perceptibleOnly = on
	b.rebuild()
}

// Len returns the number of patterns in the current view.
func (b *Browser) Len() int { return len(b.view) }

// Patterns returns the current view in table order.
func (b *Browser) Patterns() []*patterns.Pattern { return b.view }

// Select sets the cursor to the i-th pattern of the view and resets
// the episode cursor to the pattern's first episode.
func (b *Browser) Select(i int) error {
	if i < 0 || i >= len(b.view) {
		return fmt.Errorf("browser: pattern %d out of range (view has %d)", i, len(b.view))
	}
	b.selected = i
	b.episode = 0
	return nil
}

// Selected returns the selected pattern, or nil.
func (b *Browser) Selected() *patterns.Pattern {
	if b.selected < 0 {
		return nil
	}
	return b.view[b.selected]
}

// Episode returns the current episode of the selected pattern.
func (b *Browser) Episode() (patterns.EpisodeRef, bool) {
	p := b.Selected()
	if p == nil {
		return patterns.EpisodeRef{}, false
	}
	return p.Episodes[b.episode], true
}

// NextEpisode and PrevEpisode step through the selected pattern's
// episodes (wrapping), letting a developer "browse through the
// sketches of all episodes in the pattern".
func (b *Browser) NextEpisode() {
	if p := b.Selected(); p != nil {
		b.episode = (b.episode + 1) % p.Count()
	}
}

// PrevEpisode steps backwards; see NextEpisode.
func (b *Browser) PrevEpisode() {
	if p := b.Selected(); p != nil {
		b.episode = (b.episode - 1 + p.Count()) % p.Count()
	}
}

// EpisodeIndex returns the episode cursor within the selected pattern.
func (b *Browser) EpisodeIndex() int { return b.episode }

// Table renders the pattern table (up to limit rows; 0 means all).
func (b *Browser) Table(limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "patterns: %d shown / %d total   sort=%s   perceptible-only=%v   threshold=%v\n",
		len(b.view), len(b.set.Patterns), b.sortKey, b.perceptibleOnly, b.set.Threshold)
	fmt.Fprintf(&sb, "%4s %-14s %6s %6s %5s | %9s %9s %9s %11s | %-9s %s\n",
		"#", "id", "eps", ">=thr", "gc%", "min", "avg", "max", "total", "occurs", "structure")
	n := len(b.view)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		p := b.view[i]
		marker := " "
		if i == b.selected {
			marker = ">"
		}
		canon := p.Canon
		if len(canon) > 48 {
			canon = canon[:45] + "..."
		}
		fmt.Fprintf(&sb, "%s%3d %-14s %6d %6d %4.0f%% | %9v %9v %9v %11v | %-9s %s\n",
			marker, i, p.ID(), p.Count(), p.PerceptibleCount(), p.GCFrac()*100,
			p.MinLag(), p.AvgLag(), p.MaxLag(), p.TotalLag(),
			p.Occurrence(), canon)
	}
	if n < len(b.view) {
		fmt.Fprintf(&sb, "... %d more\n", len(b.view)-n)
	}
	return sb.String()
}

// EpisodeList renders the selected pattern's episode list.
func (b *Browser) EpisodeList() string {
	p := b.Selected()
	if p == nil {
		return "no pattern selected\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern %s: %d episode(s)\n%s\n", p.ID(), p.Count(), p.Canon)
	for i, ref := range p.Episodes {
		marker := " "
		if i == b.episode {
			marker = ">"
		}
		perceptible := ""
		if ref.Episode.Perceptible(b.set.Threshold) {
			perceptible = "  PERCEPTIBLE"
		}
		session := "?"
		if ref.Session != nil {
			session = fmt.Sprintf("%s/%d", ref.Session.App, ref.Session.ID)
		}
		fmt.Fprintf(&sb, "%s%3d  %-16s episode %-5d start %-12v lag %v%s\n",
			marker, i, session, ref.Episode.Index, ref.Episode.Start(), ref.Episode.Dur(), perceptible)
	}
	return sb.String()
}

// SketchSVG renders the current episode's sketch as SVG.
func (b *Browser) SketchSVG() (string, bool) {
	ref, ok := b.Episode()
	if !ok {
		return "", false
	}
	return viz.Sketch(ref.Session, ref.Episode, viz.SketchOptions{}), true
}

// SketchText renders the current episode's plain-text sketch.
func (b *Browser) SketchText() (string, bool) {
	ref, ok := b.Episode()
	if !ok {
		return "", false
	}
	return viz.SketchText(ref.Session, ref.Episode), true
}
