package engine

import (
	"lagalyzer/internal/analysis"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// FNV-1a 64-bit parameters, matching internal/patterns so the engine's
// inline hashes are identical to patterns.Classify's.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// walker holds the per-worker state of the fused episode traversal.
// One walker is reused across all episodes a worker processes, so the
// canon buffer is allocated once per worker instead of once per
// episode. A walker is not safe for concurrent use.
type walker struct {
	popt patterns.Options
	topt analysis.TriggerOptions

	// canon emission + incremental FNV-1a hash
	buf  []byte
	hash uint64

	trigger TriggerRule

	// exclusive per-kind time (Figure 6's GC/native fractions)
	gc, native trace.Dur
}

func newWalker(opts Options) *walker {
	return &walker{popt: opts.Patterns, topt: opts.Trigger}
}

// analyze traverses the episode's interval tree exactly once,
// simultaneously computing the structural fingerprint (canonical
// bytes, FNV-1a hash, descendants, depth — GC nodes excluded unless
// the options include them), the trigger class (TriggerRule driven in
// preorder), and the exclusive GC and native time; then it folds the
// episode's sampling ticks. The returned Print is valid until the next
// analyze call.
func (w *walker) analyze(s *trace.Session, e *trace.Episode) EpisodeInfo {
	w.buf = w.buf[:0]
	w.hash = fnvOffset64
	w.trigger = NewTriggerRule(w.topt)
	w.gc, w.native = 0, 0

	structured := patterns.Classifiable(e, w.popt)
	descs, depth := w.visit(e.Root, structured)

	info := EpisodeInfo{
		Structured: structured,
		Trigger:    w.trigger.Trigger(),
		GC:         w.gc,
		Native:     w.native,
		Ticks:      tallyTicks(s, e),
	}
	if structured {
		info.Print = patterns.Print{
			Canon:       w.buf,
			Hash:        w.hash,
			Descendants: descs,
			Depth:       depth,
		}
	}
	return info
}

// visit recurses over the full tree in preorder (the trigger and
// kind-time accountings need every node, including excluded GC
// subtrees); canon gates which nodes also emit canonical bytes and
// count toward the structural metrics.
func (w *walker) visit(iv *trace.Interval, canon bool) (descs, depth int) {
	w.trigger.Enter(iv.Kind)
	if canon {
		w.emitString(iv.Kind.String())
		if !w.popt.KindOnly && (iv.Class != "" || iv.Method != "") {
			w.emitByte('[')
			w.emitString(iv.Class)
			w.emitByte('.')
			w.emitString(iv.Method)
			w.emitByte(']')
		}
	}

	self := iv.Dur()
	wrote := false
	maxChild := 0
	for _, c := range iv.Children {
		self -= c.Dur()
		if canon && !(c.Kind == trace.KindGC && !w.popt.IncludeGC) {
			if !wrote {
				w.emitByte('(')
				wrote = true
			} else {
				w.emitByte(',')
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
		w.emitByte(')')
	}

	switch iv.Kind {
	case trace.KindGC:
		w.gc += self
	case trace.KindNative:
		w.native += self
	}
	w.trigger.Exit()
	return descs, maxChild + 1
}

func (w *walker) emitString(s string) {
	w.buf = append(w.buf, s...)
	h := w.hash
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	w.hash = h
}

func (w *walker) emitByte(b byte) {
	w.buf = append(w.buf, b)
	w.hash = (w.hash ^ uint64(b)) * fnvPrime64
}
