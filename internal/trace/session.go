package trace

import (
	"fmt"
	"sort"
)

// DefaultPerceptibleThreshold is the episode duration beyond which lag
// is perceptible by a user. The paper follows Shneiderman's 100 ms
// threshold throughout.
const DefaultPerceptibleThreshold = 100 * Millisecond

// DefaultFilterThreshold is the tracing tool's episode filter: episodes
// shorter than this are dropped at trace time to reduce overhead, and
// only their count reaches LagAlyzer.
const DefaultFilterThreshold = 3 * Millisecond

// Episode is one user request handled on a GUI thread: the time
// interval from the point the request is dispatched until the point it
// is completed. Root is the episode's Dispatch interval; everything the
// system did to handle the request is nested below it.
type Episode struct {
	// Index is the episode's position in session order, counting only
	// traced (≥ filter threshold) episodes, starting at 0.
	Index int
	// Thread is the event dispatch thread that handled the request.
	Thread ThreadID
	// Root is the Dispatch interval; Root.Kind == KindDispatch.
	Root *Interval
}

// Start returns the dispatch time of the episode's request.
func (e *Episode) Start() Time { return e.Root.Start }

// End returns the completion time of the episode's request.
func (e *Episode) End() Time { return e.Root.End }

// Dur returns the episode's lag: the full duration of its handling.
func (e *Episode) Dur() Dur { return e.Root.Dur() }

// Perceptible reports whether the episode's lag exceeds the given
// threshold (DefaultPerceptibleThreshold in the paper's study).
func (e *Episode) Perceptible(threshold Dur) bool { return e.Dur() >= threshold }

// ThreadInfo describes one thread observed in a session.
type ThreadInfo struct {
	ID   ThreadID
	Name string
	// Daemon marks background/service threads (samplers ignore the
	// distinction; it is informational).
	Daemon bool
}

// Session is the complete trace of one interactive session with an
// application: its episodes (traced on the GUI thread), the periodic
// all-thread samples, session-wide GC spans, and bookkeeping about the
// tracing configuration.
type Session struct {
	// App is the application's display name (e.g. "JMol").
	App string
	// ID distinguishes the multiple sessions performed per application
	// (the study performs four).
	ID int
	// Start and End delimit the session; End-Start is the end-to-end
	// ("E2E") time of Table III.
	Start, End Time
	// GUIThread is the event dispatch thread whose dispatch intervals
	// define episodes.
	GUIThread ThreadID
	// Threads lists all threads observed in the trace.
	Threads []ThreadInfo
	// Episodes holds the traced episodes in start order. Episodes
	// shorter than FilterThreshold were dropped by the profiler and
	// are only counted in ShortCount.
	Episodes []*Episode
	// ShortCount is the number of episodes shorter than
	// FilterThreshold that the profiler observed but did not trace
	// (column "< 3ms" of Table III).
	ShortCount int
	// Ticks holds all sampling ticks in time order.
	Ticks []SampleTick
	// GCs lists every stop-the-world collection in the session (also
	// present as intervals inside episode trees when they overlap an
	// episode). Used for whole-session GC accounting.
	GCs []*Interval
	// FilterThreshold is the profiler's minimum traced episode
	// duration (DefaultFilterThreshold in the study).
	FilterThreshold Dur
	// SamplePeriod is the nominal interval between sampling ticks.
	SamplePeriod Dur
}

// E2E returns the session's end-to-end duration.
func (s *Session) E2E() Dur { return s.End.Sub(s.Start) }

// InEpisode returns the total time the system spent handling traced
// user requests. Together with E2E it yields Table III's "In-Eps"
// percentage.
func (s *Session) InEpisode() Dur {
	var total Dur
	for _, e := range s.Episodes {
		total += e.Dur()
	}
	return total
}

// InEpisodeFrac returns InEpisode as a fraction of E2E, or 0 for an
// empty session.
func (s *Session) InEpisodeFrac() float64 {
	e2e := s.E2E()
	if e2e <= 0 {
		return 0
	}
	return float64(s.InEpisode()) / float64(e2e)
}

// PerceptibleEpisodes returns the traced episodes whose lag is at least
// threshold, in session order.
func (s *Session) PerceptibleEpisodes(threshold Dur) []*Episode {
	var out []*Episode
	for _, e := range s.Episodes {
		if e.Perceptible(threshold) {
			out = append(out, e)
		}
	}
	return out
}

// TicksIn returns the sampling ticks with from ≤ time < to, as a
// subslice of s.Ticks (no copy). It requires s.Ticks to be sorted by
// time, which Validate enforces.
func (s *Session) TicksIn(from, to Time) []SampleTick {
	lo := sort.Search(len(s.Ticks), func(i int) bool { return s.Ticks[i].Time >= from })
	hi := sort.Search(len(s.Ticks), func(i int) bool { return s.Ticks[i].Time >= to })
	return s.Ticks[lo:hi]
}

// EpisodeTicks returns the sampling ticks that fell within episode e.
func (s *Session) EpisodeTicks(e *Episode) []SampleTick {
	return s.TicksIn(e.Start(), e.End())
}

// EpisodeAt returns the traced episode containing time t, if any.
func (s *Session) EpisodeAt(t Time) (*Episode, bool) {
	i := sort.Search(len(s.Episodes), func(i int) bool { return s.Episodes[i].End() > t })
	if i < len(s.Episodes) && s.Episodes[i].Root.Contains(t) {
		return s.Episodes[i], true
	}
	return nil, false
}

// ThreadByID returns the ThreadInfo for id, if present.
func (s *Session) ThreadByID(id ThreadID) (ThreadInfo, bool) {
	for _, t := range s.Threads {
		if t.ID == id {
			return t, true
		}
	}
	return ThreadInfo{}, false
}

// Validate checks session-level invariants: episode ordering and
// nesting, dispatch roots on the GUI thread, tick ordering, and GC span
// sanity. Analyses may assume these hold for any session produced by
// treebuild or the simulator.
func (s *Session) Validate() error {
	if s.End < s.Start {
		return fmt.Errorf("trace: session %s/%d ends before it starts", s.App, s.ID)
	}
	// Episodes of one thread never overlap; episodes of different
	// event dispatch threads may (the multi-EDT case of Section V).
	prevEnd := make(map[ThreadID]Time)
	for i, e := range s.Episodes {
		if e.Index != i {
			return fmt.Errorf("trace: episode %d of %s/%d carries index %d", i, s.App, s.ID, e.Index)
		}
		if err := s.CheckEpisode(i, e, prevEnd, s.End); err != nil {
			return err
		}
	}
	var prevTick Time = -1
	for i, tk := range s.Ticks {
		if tk.Time < prevTick {
			return fmt.Errorf("trace: tick %d of %s/%d out of order", i, s.App, s.ID)
		}
		prevTick = tk.Time
		for _, th := range tk.Threads {
			if !th.State.Valid() {
				return fmt.Errorf("trace: tick %d of %s/%d has invalid thread state", i, s.App, s.ID)
			}
		}
	}
	for i, gc := range s.GCs {
		if gc.Kind != KindGC {
			return fmt.Errorf("trace: session GC %d of %s/%d has kind %v", i, s.App, s.ID, gc.Kind)
		}
		if gc.End < gc.Start {
			return fmt.Errorf("trace: session GC %d of %s/%d ends before it starts", i, s.App, s.ID)
		}
	}
	return nil
}

// CheckEpisode applies Validate's rules to episode i: a dispatch root,
// no overlap with its thread's last episode end in prevEnd (which it
// advances), bounds [s.Start, end], and a valid interval tree.
func (s *Session) CheckEpisode(i int, e *Episode, prevEnd map[ThreadID]Time, end Time) error {
	if e.Root == nil {
		return fmt.Errorf("trace: episode %d of %s/%d has no root interval", i, s.App, s.ID)
	}
	if e.Root.Kind != KindDispatch {
		return fmt.Errorf("trace: episode %d of %s/%d roots at %v, want dispatch", i, s.App, s.ID, e.Root.Kind)
	}
	if e.Start() < prevEnd[e.Thread] {
		return fmt.Errorf("trace: episode %d of %s/%d overlaps its predecessor on thread %d", i, s.App, s.ID, e.Thread)
	}
	if e.Start() < s.Start || e.End() > end {
		return fmt.Errorf("trace: episode %d of %s/%d escapes the session bounds", i, s.App, s.ID)
	}
	prevEnd[e.Thread] = e.End()
	if err := e.Root.Validate(); err != nil {
		return fmt.Errorf("episode %d of %s/%d: %w", i, s.App, s.ID, err)
	}
	return nil
}

// Suite groups the sessions recorded for one application. The study
// performs four similar sessions per application and reports averages
// across them.
type Suite struct {
	App      string
	Sessions []*Session
}

// Study is a full characterization run: one suite per application.
type Study struct {
	Suites []*Suite
}

// Sessions returns every session of every suite, in suite order.
func (st *Study) Sessions() []*Session {
	var out []*Session
	for _, su := range st.Suites {
		out = append(out, su.Sessions...)
	}
	return out
}
