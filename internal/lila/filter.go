package lila

import (
	"lagalyzer/internal/trace"
)

// RecordFilter selects a subset of a trace's record stream: some
// threads, one time window. It is V2File.Records' record-level rule,
// applied after every block has decoded.
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
// record stream. Not safe for concurrent use; apply owns one per call.
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

// apply filters recs in place, keeping what the rule selects.
func (f *RecordFilter) apply(recs []*Record) []*Record {
	s := newFilterState(f)
	kept := recs[:0]
	for _, rec := range recs {
		if s.keep(rec) {
			kept = append(kept, rec)
		}
	}
	return kept
}
