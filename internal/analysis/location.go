package analysis

import "lagalyzer/internal/trace"

// LocationShares quantifies where episode time went (one application's
// two stacked bars of Figure 6).
//
// App and Library partition the Java-code samples of the episode
// thread, classified by the leaf frame's class name (engine.IsLibrary):
// App+Library = 1 when any such samples exist. GC and Native are
// fractions of total episode *time* spent in garbage collection and in
// native calls (exclusive of nested GC), computed directly from the
// intervals.
type LocationShares struct {
	App     float64
	Library float64
	GC      float64
	Native  float64

	// JavaSamples is the number of samples behind the App/Library
	// split (0 means the split is undefined and reported as 0/0).
	JavaSamples int
	// EpisodeTime is the total episode time behind the GC/Native
	// fractions.
	EpisodeTime trace.Dur
}
