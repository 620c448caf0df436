package analysis

// Overview is one row of the paper's Table III: session duration,
// episode counts, and pattern statistics for one application, averaged
// over its sessions.
type Overview struct {
	App      string
	Sessions int

	// E2ESeconds is the mean end-to-end session duration ("E2E [s]").
	E2ESeconds float64
	// InEpsFrac is the mean fraction of time spent in traced episodes
	// ("In-Eps [%]" as a fraction).
	InEpsFrac float64

	// Short is the mean count of episodes below the trace filter
	// ("< 3ms").
	Short float64
	// Traced is the mean count of traced episodes ("≥ 3ms").
	Traced float64
	// Perceptible is the mean count of perceptible episodes
	// ("≥ 100ms").
	Perceptible float64
	// LongPerMin is the mean number of perceptible episodes per
	// minute of in-episode time ("Long/min") — the paper's
	// cross-application measure of how often a user notices lag.
	LongPerMin float64

	// Dist is the mean number of distinct patterns per session
	// ("Dist").
	Dist float64
	// CoveredEps is the mean number of episodes covered by patterns
	// ("#Eps"; episodes without internal structure are excluded).
	CoveredEps float64
	// OneEpFrac is the mean fraction of singleton patterns ("One-Ep").
	OneEpFrac float64
	// Descs is the mean number of descendants of the dispatch
	// interval, averaged over patterns ("Descs").
	Descs float64
	// Depth is the mean interval tree depth, averaged over patterns
	// ("Depth").
	Depth float64
}

// MeanOverview averages a list of per-application overviews into the
// "Mean" row of Table III.
func MeanOverview(rows []Overview) Overview {
	m := Overview{App: "Mean"}
	if len(rows) == 0 {
		return m
	}
	n := float64(len(rows))
	for _, r := range rows {
		m.Sessions += r.Sessions
		m.E2ESeconds += r.E2ESeconds / n
		m.InEpsFrac += r.InEpsFrac / n
		m.Short += r.Short / n
		m.Traced += r.Traced / n
		m.Perceptible += r.Perceptible / n
		m.LongPerMin += r.LongPerMin / n
		m.Dist += r.Dist / n
		m.CoveredEps += r.CoveredEps / n
		m.OneEpFrac += r.OneEpFrac / n
		m.Descs += r.Descs / n
		m.Depth += r.Depth / n
	}
	return m
}
