// Package analysis is the vocabulary of LagAlyzer's characterization
// (Section IV of the paper): the trigger classes (Figure 5), the
// per-population share types of Figures 5-8, the Table III overview
// row, and the perceptibility thresholds of the HCI literature.
//
// The rules that compute these values live in one place, the
// internal/engine package; this package only names their results.
package analysis

// Trigger classifies what initiated an episode (Section IV-C).
type Trigger int

const (
	// TriggerInput: the episode was triggered by user input — its
	// first significant interval is a listener notification.
	TriggerInput Trigger = iota
	// TriggerOutput: the episode renders to the screen — its first
	// significant interval is a paint, or an async interval wrapping a
	// paint: the toolkit's repaint manager enqueues paint requests
	// through the event queue even on the GUI thread, so such an
	// episode is really output.
	TriggerOutput
	// TriggerAsync: the episode handles an event posted by a
	// background thread.
	TriggerAsync
	// TriggerUnspecified: the episode has no listener, paint, or
	// async interval long enough to have passed the trace filter.
	TriggerUnspecified

	numTriggers = iota
)

// NumTriggers is the number of trigger classes, for callers sizing
// mergeable per-trigger tallies.
const NumTriggers = numTriggers

var triggerNames = [numTriggers]string{
	TriggerInput:       "input",
	TriggerOutput:      "output",
	TriggerAsync:       "async",
	TriggerUnspecified: "unspecified",
}

// String returns the trigger's lowercase name as used in Figure 5.
func (t Trigger) String() string {
	if int(t) >= numTriggers {
		return "trigger(?)"
	}
	return triggerNames[t]
}

// Triggers returns all trigger classes in Figure 5's stacking order.
func Triggers() []Trigger {
	ts := make([]Trigger, numTriggers)
	for i := range ts {
		ts[i] = Trigger(i)
	}
	return ts
}

// TriggerShares is the per-class episode fraction for one population
// of episodes (one bar of Figure 5). Fractions sum to 1 unless the
// population was empty.
type TriggerShares struct {
	Counts [numTriggers]int
	Total  int
}

// Frac returns the fraction of episodes with the given trigger.
func (ts TriggerShares) Frac(t Trigger) float64 {
	if ts.Total == 0 {
		return 0
	}
	return float64(ts.Counts[t]) / float64(ts.Total)
}
