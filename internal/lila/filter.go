package lila

import (
	"lagalyzer/internal/trace"
)

// RecordFilter selects a subset of a trace's record stream for
// analyses that do not need everything — episode building needs only
// the GUI thread's calls, a zoomed-in view needs only one time window.
// Filter semantics are defined at the record level and are therefore
// format-independent: a v2 reader merely *accelerates* the same
// selection by skipping whole blocks whose index entry cannot match.
//
// The selection always keeps the stream well formed:
//
//   - Global records (thread declarations, GC brackets, the end
//     record) are always kept; they apply to every thread and cost
//     little.
//   - A call is kept when its thread is selected and its start time is
//     inside the window; the matching return is kept exactly when the
//     call was (tracked per thread), so no reader downstream ever sees
//     an unbalanced call/return stream.
//   - A sample is kept when its thread is selected and its time stamp
//     is inside the window.
type RecordFilter struct {
	// Threads restricts thread-attributed records to these threads;
	// nil selects every thread.
	Threads []trace.ThreadID
	// MinTime and MaxTime bound the selected window. MaxTime 0 means
	// unbounded above (trace times are non-negative in practice; a
	// window genuinely ending at 0 selects nothing timed, as written).
	MinTime, MaxTime trace.Time
}

// All reports whether the filter selects every record (nil or zero).
func (f *RecordFilter) All() bool {
	return f == nil || (len(f.Threads) == 0 && f.MinTime == 0 && f.MaxTime == 0)
}

// filterState is the stateful evaluator of a RecordFilter over one
// record stream. Not safe for concurrent use; each reader owns one.
type filterState struct {
	f       *RecordFilter
	threads map[trace.ThreadID]bool // nil = all threads
	depth   map[trace.ThreadID]int  // open kept calls per thread
}

func newFilterState(f *RecordFilter) *filterState {
	s := &filterState{f: f, depth: make(map[trace.ThreadID]int)}
	if len(f.Threads) > 0 {
		s.threads = make(map[trace.ThreadID]bool, len(f.Threads))
		for _, id := range f.Threads {
			s.threads[id] = true
		}
	}
	return s
}

func (s *filterState) inWindow(t trace.Time) bool {
	if t < s.f.MinTime {
		return false
	}
	return s.f.MaxTime == 0 || t <= s.f.MaxTime
}

func (s *filterState) threadSelected(id trace.ThreadID) bool {
	return s.threads == nil || s.threads[id]
}

// keep decides whether rec survives the selection. It must see every
// record of the stream, in order, to balance calls and returns.
func (s *filterState) keep(rec *Record) bool {
	switch rec.Type {
	case RecThread, RecGCStart, RecGCEnd, RecEnd:
		return true
	case RecCall:
		if s.threadSelected(rec.Thread) && s.inWindow(rec.Time) {
			s.depth[rec.Thread]++
			return true
		}
		return false
	case RecReturn:
		// Kept exactly when its call was: a return closing a call that
		// fell outside the selection is dropped with it.
		if s.depth[rec.Thread] > 0 {
			s.depth[rec.Thread]--
			return true
		}
		return false
	case RecSample:
		return s.threadSelected(rec.Thread) && s.inWindow(rec.Time)
	}
	return true
}

// blockThreadHit reports whether the block's thread bitmap intersects
// the selected threads (vacuously true without a thread restriction;
// the bitmap has false positives but never false negatives).
func (s *filterState) blockThreadHit(b *V2BlockInfo) bool {
	if s.threads == nil {
		return true
	}
	for id := range s.threads {
		if b.threadBits&threadBit(id) != 0 {
			return true
		}
	}
	return false
}

// blockTimeExcluded reports whether every timed record of the block
// falls outside the filter window.
func (s *filterState) blockTimeExcluded(b *V2BlockInfo) bool {
	if s.f.MaxTime != 0 && b.MinTime > s.f.MaxTime {
		return true
	}
	return b.MaxTime < s.f.MinTime
}

// blockMayMatch is the v2 index-level pre-test: false only when no
// record of the block can survive the filter, so skipping the block is
// sound. Global blocks always decode (they carry records every
// selection keeps). A thread-bitmap miss is sound even while a kept
// call is open: the writer sets a thread's bit for its returns as well
// as its calls, so a missed block can hold neither a selected thread's
// call nor the return that closes one — and only selected threads ever
// have open depth. An open call therefore only forces decoding of
// blocks the *window* test would exclude, where the call's return (in
// a later, out-of-window block) may hide.
func (s *filterState) blockMayMatch(b *V2BlockInfo) bool {
	if b.flags&v2FlagGlobal != 0 {
		return true
	}
	if !s.blockThreadHit(b) {
		return false
	}
	for _, d := range s.depth {
		if d > 0 {
			return true
		}
	}
	return !s.blockTimeExcluded(b)
}

// NewFilteredReader wraps r so that Read yields only records selected
// by f, preserving the Reader contract (io.EOF after the end record).
// It is how the text reader honors the same selection a v2 reader
// serves from its block index.
func NewFilteredReader(r Reader, f *RecordFilter) Reader {
	if f.All() {
		return r
	}
	return &filteredReader{r: r, state: newFilterState(f)}
}

type filteredReader struct {
	r     Reader
	state *filterState
}

func (fr *filteredReader) Header() Header { return fr.r.Header() }

func (fr *filteredReader) Read() (*Record, error) {
	for {
		rec, err := fr.r.Read()
		if err != nil {
			return nil, err
		}
		if fr.state.keep(rec) {
			return rec, nil
		}
	}
}

// Salvage implements SalvageReporter by delegation, so damage
// accounting survives filtering.
func (fr *filteredReader) Salvage() *SalvageReport { return SalvageOf(fr.r) }
