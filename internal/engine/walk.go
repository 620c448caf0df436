package engine

import (
	"lagalyzer/internal/analysis"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// walker holds the state of the fused episode traversal. One walker is
// reused across all the episodes a fold sees, so the canon buffer is
// allocated once per fold instead of once per episode. A walker is not
// safe for concurrent use.
type walker struct {
	popt patterns.Options
	topt analysis.TriggerOptions

	// canon emission + incremental FNV-1a hash, shared with
	// patterns.Classify
	canon patterns.Canon

	trigger TriggerRule

	// exclusive per-kind time (Figure 6's GC/native fractions)
	gc, native trace.Dur
	hasGC      bool

	// the whole tree's size, GC included (Figure 2's pick)
	nodes, level, height int
}

func newWalker(opts Options) *walker {
	return &walker{popt: opts.Patterns, topt: opts.Trigger}
}

// analyze traverses the episode's interval tree exactly once,
// simultaneously computing the structural fingerprint (canonical
// bytes, FNV-1a hash, descendants, depth — GC nodes excluded unless
// the options include them), the trigger class (TriggerRule driven in
// preorder), the exclusive GC and native time, and the whole tree's
// size; then it folds the episode's sampling ticks. The returned Print
// is valid until the next analyze call.
func (w *walker) analyze(s *trace.Session, e *trace.Episode) EpisodeInfo {
	w.canon.Reset()
	w.trigger = NewTriggerRule(w.topt)
	w.gc, w.native, w.hasGC = 0, 0, false
	w.nodes, w.level, w.height = 0, 0, 0

	structured := patterns.Classifiable(e, w.popt)
	descs, depth := w.visit(e.Root, structured)

	info := EpisodeInfo{
		Structured: structured,
		Trigger:    w.trigger.Trigger(),
		GC:         w.gc,
		Native:     w.native,
		Ticks:      tallyTicks(s, e),
		Size:       (w.nodes - 1) * w.height,
	}
	if structured {
		info.Print = w.canon.Print(descs, depth, w.hasGC)
	}
	return info
}

// visit recurses over the full tree in preorder (the trigger and
// kind-time accountings need every node, including excluded GC
// subtrees); canon gates which nodes also emit canonical bytes and
// count toward the structural metrics.
func (w *walker) visit(iv *trace.Interval, canon bool) (descs, depth int) {
	w.trigger.Enter(iv.Kind)
	w.nodes++
	w.level++
	w.height = max(w.height, w.level)
	if canon {
		w.canon.Node(iv, w.popt.KindOnly)
	}

	self := iv.Dur()
	wrote := false
	maxChild := 0
	for _, c := range iv.Children {
		self -= c.Dur()
		if canon && !(c.Kind == trace.KindGC && !w.popt.IncludeGC) {
			if !wrote {
				w.canon.Byte('(')
				wrote = true
			} else {
				w.canon.Byte(',')
			}
			d, dep := w.visit(c, true)
			descs += 1 + d
			if dep > maxChild {
				maxChild = dep
			}
		} else {
			w.visit(c, false)
		}
	}
	if wrote {
		w.canon.Byte(')')
	}

	switch iv.Kind {
	case trace.KindGC:
		w.gc += self
		w.hasGC = true
	case trace.KindNative:
		w.native += self
	}
	w.level--
	w.trigger.Exit()
	return descs, maxChild + 1
}
