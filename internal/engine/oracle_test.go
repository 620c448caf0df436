package engine

import (
	"strings"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/trace"
)

// The oracle: one straightforward pass per figure and population, the
// way the paper states each analysis. It shares no code with the rules
// in rules.go or the fused walk, so the engine tests compare two
// independent derivations of every figure.

// oracleTriggerOf finds the first listener, paint, or async interval
// in preorder; an async interval containing a paint is output.
func oracleTriggerOf(e *trace.Episode) analysis.Trigger {
	deciding := e.Root.Find(func(n *trace.Interval) bool {
		switch n.Kind {
		case trace.KindListener, trace.KindPaint, trace.KindAsync:
			return true
		}
		return false
	})
	if deciding == nil {
		return analysis.TriggerUnspecified
	}
	switch deciding.Kind {
	case trace.KindListener:
		return analysis.TriggerInput
	case trace.KindPaint:
		return analysis.TriggerOutput
	default: // async
		if deciding.HasKind(trace.KindPaint) {
			return analysis.TriggerOutput
		}
		return analysis.TriggerAsync
	}
}

// oracleEpisodes visits the population's episodes.
func oracleEpisodes(sessions []*trace.Session, threshold trace.Dur, onlyPerceptible bool, fn func(*trace.Session, *trace.Episode)) {
	for _, s := range sessions {
		for _, e := range s.Episodes {
			if onlyPerceptible && !e.Perceptible(threshold) {
				continue
			}
			fn(s, e)
		}
	}
}

func oracleTriggers(sessions []*trace.Session, threshold trace.Dur, onlyPerceptible bool) analysis.TriggerShares {
	var ts analysis.TriggerShares
	oracleEpisodes(sessions, threshold, onlyPerceptible, func(_ *trace.Session, e *trace.Episode) {
		ts.Counts[oracleTriggerOf(e)]++
		ts.Total++
	})
	return ts
}

func oracleIsLibrary(f trace.Frame) bool {
	for _, p := range libraryPrefixes {
		if strings.HasPrefix(f.Class, p) {
			return true
		}
	}
	return false
}

func oracleLocation(sessions []*trace.Session, threshold trace.Dur, onlyPerceptible bool) analysis.LocationShares {
	var (
		appSamples, libSamples int
		gcTime, nativeTime     trace.Dur
		episodeTime            trace.Dur
	)
	oracleEpisodes(sessions, threshold, onlyPerceptible, func(s *trace.Session, e *trace.Episode) {
		episodeTime += e.Dur()
		kt := e.Root.KindTime()
		gcTime += kt[trace.KindGC]
		nativeTime += kt[trace.KindNative]
		for _, tick := range s.EpisodeTicks(e) {
			ts, ok := tick.Thread(e.Thread)
			if !ok {
				continue
			}
			leaf, ok := ts.Leaf()
			if !ok || leaf.Native {
				continue // not executing Java code
			}
			if oracleIsLibrary(leaf) {
				libSamples++
			} else {
				appSamples++
			}
		}
	})
	shares := analysis.LocationShares{
		JavaSamples: appSamples + libSamples,
		EpisodeTime: episodeTime,
	}
	if shares.JavaSamples > 0 {
		shares.App = float64(appSamples) / float64(shares.JavaSamples)
		shares.Library = float64(libSamples) / float64(shares.JavaSamples)
	}
	if episodeTime > 0 {
		shares.GC = float64(gcTime) / float64(episodeTime)
		shares.Native = float64(nativeTime) / float64(episodeTime)
	}
	return shares
}

func oracleConcurrency(sessions []*trace.Session, threshold trace.Dur, onlyPerceptible bool) (float64, int) {
	total, ticks := 0, 0
	oracleEpisodes(sessions, threshold, onlyPerceptible, func(s *trace.Session, e *trace.Episode) {
		for _, tick := range s.EpisodeTicks(e) {
			total += tick.Runnable()
			ticks++
		}
	})
	if ticks == 0 {
		return 0, 0
	}
	return float64(total) / float64(ticks), ticks
}

func oracleCauses(sessions []*trace.Session, threshold trace.Dur, onlyPerceptible bool) analysis.CauseShares {
	var counts [4]int
	total := 0
	oracleEpisodes(sessions, threshold, onlyPerceptible, func(s *trace.Session, e *trace.Episode) {
		for _, tick := range s.EpisodeTicks(e) {
			ts, ok := tick.Thread(e.Thread)
			if !ok {
				continue
			}
			counts[ts.State]++
			total++
		}
	})
	c := analysis.CauseShares{Samples: total}
	if total == 0 {
		return c
	}
	c.Runnable = float64(counts[trace.StateRunnable]) / float64(total)
	c.Blocked = float64(counts[trace.StateBlocked]) / float64(total)
	c.Waiting = float64(counts[trace.StateWaiting]) / float64(total)
	c.Sleeping = float64(counts[trace.StateSleeping]) / float64(total)
	return c
}

// oracleOverview computes the Table III row by classifying each
// session on its own and averaging, as the table presents it.
func oracleOverview(suite *trace.Suite, threshold trace.Dur) analysis.Overview {
	o := analysis.Overview{App: suite.App, Sessions: len(suite.Sessions)}
	if len(suite.Sessions) == 0 {
		return o
	}
	n := float64(len(suite.Sessions))
	for _, s := range suite.Sessions {
		o.E2ESeconds += s.E2E().Seconds() / n
		o.InEpsFrac += s.InEpisodeFrac() / n
		o.Short += float64(s.ShortCount) / n
		o.Traced += float64(len(s.Episodes)) / n
		perceptible := len(s.PerceptibleEpisodes(threshold))
		o.Perceptible += float64(perceptible) / n
		if inEps := s.InEpisode(); inEps > 0 {
			o.LongPerMin += float64(perceptible) / (inEps.Seconds() / 60) / n
		}

		count := make(map[string]int)
		var descs, depth int
		for _, e := range s.Episodes {
			canon, d, dep := oracleShape(e.Root)
			if d == 0 {
				continue // unstructured
			}
			if count[canon] == 0 {
				descs += d
				depth += dep
			}
			count[canon]++
		}
		if len(count) == 0 {
			continue
		}
		covered, singletons := 0, 0
		for _, c := range count {
			covered += c
			if c == 1 {
				singletons++
			}
		}
		dist := float64(len(count))
		o.Dist += dist / n
		o.CoveredEps += float64(covered) / n
		o.OneEpFrac += float64(singletons) / dist / n
		o.Descs += float64(descs) / dist / n
		o.Depth += float64(depth) / dist / n
	}
	return o
}

// oracleShape returns the paper's structural form of iv's tree with
// every GC subtree pruned — kinds and symbols, no timing — with the
// pruned tree's descendant count and height.
func oracleShape(iv *trace.Interval) (canon string, descs, depth int) {
	canon = iv.Kind.String()
	if iv.Class != "" || iv.Method != "" {
		canon += "[" + iv.Class + "." + iv.Method + "]"
	}
	var kids []string
	for _, c := range iv.Children {
		if c.Kind == trace.KindGC {
			continue
		}
		k, d, dep := oracleShape(c)
		kids = append(kids, k)
		descs += 1 + d
		depth = max(depth, dep)
	}
	if len(kids) > 0 {
		canon += "(" + strings.Join(kids, ",") + ")"
	}
	return canon, descs, depth + 1
}
