package engine

import (
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// walker holds the state of the fused episode traversal. One walker is
// reused across all the episodes a fold sees, so the canon buffer is
// allocated once per fold instead of once per episode. A walker is not
// safe for concurrent use.
type walker struct {
	// canonical-form emission (the builder keys patterns by it)
	canon patterns.Canon

	trigger TriggerRule

	// exclusive per-kind time (Figure 6's GC/native fractions)
	gc, native trace.Dur
	hasGC      bool

	// the whole tree's size, GC included (Figure 2's pick)
	nodes, level, height int
}

// analyze traverses the episode's interval tree exactly once,
// simultaneously computing the structural fingerprint (canonical
// bytes, descendants, depth — GC nodes excluded), the trigger class
// (TriggerRule driven in preorder), the exclusive GC and native time,
// and the whole tree's size; then it folds the episode's sampling
// ticks. The returned Print
// is valid until the next analyze call.
func (w *walker) analyze(s *trace.Session, e *trace.Episode) EpisodeInfo {
	pr, structured := w.fingerprint(e)
	return EpisodeInfo{
		Structured: structured,
		Print:      pr,
		Trigger:    w.trigger.Trigger(),
		GC:         w.gc,
		Native:     w.native,
		Ticks:      tallyTicks(s, e),
		Size:       (w.nodes - 1) * w.height,
	}
}

// fingerprint walks e's tree once and returns its print. The episode
// is structured, and takes part in classification, when the walk
// retains a node below the dispatch interval.
func (w *walker) fingerprint(e *trace.Episode) (pr patterns.Print, structured bool) {
	w.canon.Reset()
	w.trigger = NewTriggerRule()
	w.gc, w.native, w.hasGC = 0, 0, false
	w.nodes, w.level, w.height = 0, 0, 0
	descs, depth := w.visit(e.Root, true)
	return w.canon.Print(descs, depth, w.hasGC), descs > 0
}

// visit recurses over the full tree in preorder (the trigger and
// kind-time accountings need every node, including excluded GC
// subtrees); canon gates which nodes also emit canonical bytes and
// count toward the structural metrics. It is the one statement of the
// retained-node rule: a GC child and its subtree are never retained.
func (w *walker) visit(iv *trace.Interval, canon bool) (descs, depth int) {
	w.trigger.Enter(iv.Kind)
	w.nodes++
	w.level++
	w.height = max(w.height, w.level)
	if canon {
		w.canon.Node(iv)
	}

	self := iv.Dur()
	wrote := false
	maxChild := 0
	for _, c := range iv.Children {
		self -= c.Dur()
		if canon && c.Kind != trace.KindGC {
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

// Classify groups the episodes of the given sessions into patterns at
// the paper's 100 ms threshold, keeping each pattern's member episodes
// in encounter order. Each episode is fingerprinted in one walk of its
// tree (canonical string materialized, and hashed, only once per new
// pattern).
func Classify(sessions []*trace.Session) *patterns.Set {
	var w walker
	b := patterns.NewBuilder(trace.DefaultPerceptibleThreshold)
	for _, s := range sessions {
		for _, e := range s.Episodes {
			pr, ok := w.fingerprint(e)
			if !ok {
				b.AddUnstructured()
				continue
			}
			p := b.Add(pr, e.Dur())
			p.Episodes = append(p.Episodes, patterns.EpisodeRef{Session: s, Episode: e})
		}
	}
	return b.Finish()
}

// Fingerprint returns the canonical structural form of an episode's
// tree. Two episodes belong to the same pattern iff their fingerprints
// are equal. It materializes a fresh string and does not require
// structure.
func Fingerprint(e *trace.Episode) string {
	var w walker
	pr, _ := w.fingerprint(e)
	return string(pr.Canon)
}
