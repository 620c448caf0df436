package engine

import (
	"strings"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/trace"
)

// This file is the one definition of the paper's Section IV rules:
// the trigger classification (Figure 5), the app/library and GC/native
// location of time (Figure 6), runnable-thread concurrency (Figure 7),
// and the GUI-thread causes of lag (Figure 8). The batch pipeline, the
// streaming analyzer, and the ingest batch reference all drive these
// functions; none of them restates a rule.

// TriggerRule classifies an episode's trigger incrementally from its
// intervals' enter and exit events in preorder: the first listener,
// paint, or async interval decides the class, and a paint anywhere
// below a deciding async interval reclassifies the episode as output
// (the Swing repaint-manager case). The batch walker drives it from
// its recursion, the streaming analyzer from call and return records.
type TriggerRule struct {
	trigger analysis.Trigger
	decided bool
	depth   int // open intervals
	// scan is the depth of the deciding async interval while a paint
	// below it can still reclassify the episode; 0 otherwise.
	scan int
}

// NewTriggerRule returns a rule ready for an episode's first interval.
func NewTriggerRule() TriggerRule {
	return TriggerRule{trigger: analysis.TriggerUnspecified}
}

// Enter records the opening of an interval of kind k.
func (r *TriggerRule) Enter(k trace.Kind) {
	r.depth++
	if r.scan > 0 {
		if k == trace.KindPaint {
			r.trigger, r.scan = analysis.TriggerOutput, 0
		}
		return
	}
	if r.decided {
		return
	}
	switch k {
	case trace.KindListener:
		r.decided, r.trigger = true, analysis.TriggerInput
	case trace.KindPaint:
		r.decided, r.trigger = true, analysis.TriggerOutput
	case trace.KindAsync:
		r.decided, r.trigger, r.scan = true, analysis.TriggerAsync, r.depth
	}
}

// Exit records the closing of the innermost open interval.
func (r *TriggerRule) Exit() {
	if r.depth == r.scan {
		r.scan = 0 // the deciding async interval closed without a paint
	}
	r.depth--
}

// Trigger returns the class decided so far; after the episode's last
// exit it is final.
func (r *TriggerRule) Trigger() analysis.Trigger { return r.trigger }

// final reports that no later interval can change the class.
func (r *TriggerRule) final() bool { return r.decided && r.scan == 0 }

// TriggerOf determines an episode's trigger by driving the rule over
// its interval tree.
func TriggerOf(e *trace.Episode) analysis.Trigger {
	r := NewTriggerRule()
	r.walk(e.Root)
	return r.trigger
}

func (r *TriggerRule) walk(iv *trace.Interval) {
	r.Enter(iv.Kind)
	for _, c := range iv.Children {
		if r.final() {
			break
		}
		r.walk(c)
	}
	r.Exit()
}

// libraryPrefixes are the class-name prefixes of the Java runtime
// libraries on the paper's platform (Apple's Java 6): the platform
// classes, the Sun/Apple internals, and the standards bodies'
// namespaces.
var libraryPrefixes = []string{
	"java.", "javax.", "sun.", "com.sun.", "com.apple.", "apple.",
	"jdk.", "org.omg.", "org.w3c.", "org.xml.", "org.ietf.",
}

// IsLibrary reports whether a frame executes runtime-library code
// rather than application code. The paper distinguishes the two "based
// on the fully qualified class name of the method that was executing
// when the sample was taken".
func IsLibrary(f trace.Frame) bool {
	for _, p := range libraryPrefixes {
		if strings.HasPrefix(f.Class, p) {
			return true
		}
	}
	return false
}

// TickTally is what one episode's sampling ticks contribute to its
// population: concurrency over all threads, causes over the episode
// thread's samples, and the app/library split over its Java-leaf
// samples.
type TickTally struct {
	// States counts the episode thread's samples by scheduling state,
	// and Samples their total (Figure 8).
	States  [4]int
	Samples int
	// App and Lib split the episode thread's Java-leaf samples by the
	// leaf frame's class (Figure 6); native-leaf samples count in
	// neither.
	App, Lib int
	// Runnable sums the runnable threads over Ticks ticks (Figure 7).
	Runnable, Ticks int
}

// AddTick folds one sampling tick that fell inside an episode handled
// on thread.
func (t *TickTally) AddTick(tick *trace.SampleTick, thread trace.ThreadID) {
	run, idx := tick.ScanThread(thread)
	t.Runnable += run
	t.Ticks++
	if idx < 0 {
		return
	}
	ts := &tick.Threads[idx]
	t.States[ts.State]++
	t.Samples++
	if len(ts.Stack) > 0 && !ts.Stack[0].Native {
		if IsLibrary(ts.Stack[0]) {
			t.Lib++
		} else {
			t.App++
		}
	}
}

// tallyTicks folds every sampling tick of the session that fell
// within the episode's half-open [Start, End) range.
func tallyTicks(s *trace.Session, e *trace.Episode) TickTally {
	var t TickTally
	ticks := s.EpisodeTicks(e)
	for i := range ticks {
		t.AddTick(&ticks[i], e.Thread)
	}
	return t
}

func (t *TickTally) merge(o *TickTally) {
	for i, n := range o.States {
		t.States[i] += n
	}
	t.Samples += o.Samples
	t.App += o.App
	t.Lib += o.Lib
	t.Runnable += o.Runnable
	t.Ticks += o.Ticks
}

// Population is the mergeable tally behind one population of episodes
// (all traced episodes, or only the perceptible ones) in Figures 5-8.
// Everything is integral (counts and Dur sums), so merging in any
// order gives the same tally; the shares are derived only at the end.
type Population struct {
	Trigger analysis.TriggerShares
	// EpisodeTime sums the episodes' durations; GC and Native their
	// exclusive garbage-collection and native time.
	EpisodeTime, GC, Native trace.Dur
	TickTally
}

// Add folds one episode: its trigger, duration, exclusive GC and
// native time, and tick tally.
func (p *Population) Add(trigger analysis.Trigger, dur, gc, native trace.Dur, t *TickTally) {
	p.Trigger.Counts[trigger]++
	p.Trigger.Total++
	p.EpisodeTime += dur
	p.GC += gc
	p.Native += native
	p.TickTally.merge(t)
}

// Merge folds o into p.
func (p *Population) Merge(o *Population) {
	for i, n := range o.Trigger.Counts {
		p.Trigger.Counts[i] += n
	}
	p.Trigger.Total += o.Trigger.Total
	p.EpisodeTime += o.EpisodeTime
	p.GC += o.GC
	p.Native += o.Native
	p.TickTally.merge(&o.TickTally)
}

// Location derives Figure 6's shares: the app/library split of the
// episode thread's Java-leaf samples, and exclusive GC and native time
// as fractions of episode time.
func (p *Population) Location() analysis.LocationShares {
	shares := analysis.LocationShares{
		JavaSamples: p.App + p.Lib,
		EpisodeTime: p.EpisodeTime,
	}
	if shares.JavaSamples > 0 {
		shares.App = float64(p.App) / float64(shares.JavaSamples)
		shares.Library = float64(p.Lib) / float64(shares.JavaSamples)
	}
	if p.EpisodeTime > 0 {
		shares.GC = float64(p.GC) / float64(p.EpisodeTime)
		shares.Native = float64(p.Native) / float64(p.EpisodeTime)
	}
	return shares
}

// Causes derives Figure 8's shares of the episode thread's samples by
// scheduling state.
func (p *Population) Causes() analysis.CauseShares {
	c := analysis.CauseShares{Samples: p.Samples}
	if p.Samples == 0 {
		return c
	}
	total := float64(p.Samples)
	c.Runnable = float64(p.States[trace.StateRunnable]) / total
	c.Blocked = float64(p.States[trace.StateBlocked]) / total
	c.Waiting = float64(p.States[trace.StateWaiting]) / total
	c.Sleeping = float64(p.States[trace.StateSleeping]) / total
	return c
}

// Concurrency derives Figure 7's average number of runnable threads
// per in-episode tick, and the number of ticks behind it. A tick
// inside two overlapping episodes counts once for each.
func (p *Population) Concurrency() (float64, int) {
	if p.Ticks == 0 {
		return 0, 0
	}
	return float64(p.Runnable) / float64(p.Ticks), p.Ticks
}
