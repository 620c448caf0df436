package analysis

import "lagalyzer/internal/trace"

// CauseShares partitions the GUI thread's in-episode time by its
// sampled scheduling state (Figure 8): blocked entering contended
// monitors, waiting in Object.wait()/LockSupport.park(), voluntarily
// sleeping in Thread.sleep, and runnable (doing, or ready to do,
// work). Fractions sum to 1 unless no samples were found.
type CauseShares struct {
	Blocked  float64
	Waiting  float64
	Sleeping float64
	Runnable float64
	// Samples is the number of GUI-thread samples behind the split.
	Samples int
}

// Frac returns the share for a thread state.
func (c CauseShares) Frac(st trace.ThreadState) float64 {
	switch st {
	case trace.StateBlocked:
		return c.Blocked
	case trace.StateWaiting:
		return c.Waiting
	case trace.StateSleeping:
		return c.Sleeping
	case trace.StateRunnable:
		return c.Runnable
	}
	return 0
}
