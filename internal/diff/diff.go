// Package diff compares two pattern sets — typically the same
// application traced before and after a change — and reports where
// perceptible performance regressed or improved.
//
// LagAlyzer's purpose is to point developers at "patterns of bad
// performance" worth optimizing; the natural follow-up question after
// an optimization (or an upgrade) is what changed. Because patterns
// are structural fingerprints, they align across sessions of the same
// application: a pattern present in both runs can be compared by its
// lag statistics, and patterns appearing or disappearing usually mean
// behaviour changes (new features, removed code paths, or structural
// shifts caused by the change itself).
package diff

import (
	"fmt"
	"sort"
	"strings"

	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// Verdict classifies one pattern's movement between two runs.
type Verdict int

const (
	// Unchanged: mean lag moved less than the tolerance.
	Unchanged Verdict = iota
	// Improved: mean lag dropped by more than the tolerance.
	Improved
	// Regressed: mean lag rose by more than the tolerance.
	Regressed
	// Appeared: the pattern exists only in the new run.
	Appeared
	// Disappeared: the pattern exists only in the old run.
	Disappeared
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Unchanged:
		return "unchanged"
	case Improved:
		return "improved"
	case Regressed:
		return "regressed"
	case Appeared:
		return "appeared"
	case Disappeared:
		return "disappeared"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Entry is one pattern's comparison.
type Entry struct {
	// Canon is the shared structural fingerprint.
	Canon string
	// Old and New are the pattern's two sides; one is nil for
	// Appeared/Disappeared entries.
	Old, New *patterns.Pattern
	// Verdict classifies the movement.
	Verdict Verdict
	// DeltaAvg is new minus old mean lag (0 when one side is
	// missing).
	DeltaAvg trace.Dur
	// DeltaPerceptible is the change in the number of perceptible
	// episodes (missing side counts as 0).
	DeltaPerceptible int
}

// Options tune the comparison.
type Options struct {
	// RelTolerance is the relative mean-lag change below which a
	// pattern counts as unchanged; 0 means 0.20 (±20 %).
	RelTolerance float64
	// AbsTolerance is the absolute mean-lag change below which a
	// pattern counts as unchanged regardless of the relative change;
	// 0 means 2 ms. It keeps micro-patterns from flapping.
	AbsTolerance trace.Dur
}

func (o Options) relTol() float64 {
	if o.RelTolerance > 0 {
		return o.RelTolerance
	}
	return 0.20
}

func (o Options) absTol() trace.Dur {
	if o.AbsTolerance > 0 {
		return o.AbsTolerance
	}
	return 2 * trace.Millisecond
}

// Result is a full comparison of two pattern sets.
type Result struct {
	// Entries holds every pattern of either side, ordered by severity:
	// regressions first (largest perceptible-lag growth leading),
	// then appearances, disappearances, improvements, and unchanged
	// patterns.
	Entries []Entry
	// Counts tallies entries per verdict.
	Counts map[Verdict]int
	// OldPerceptible and NewPerceptible are the total perceptible
	// episode counts of the two runs' classified episodes.
	OldPerceptible, NewPerceptible int
}

// Compare aligns two pattern sets by canonical fingerprint and counts
// perceptible episodes at the sets' threshold, which must be the same.
func Compare(oldSet, newSet *patterns.Set, opt Options) (*Result, error) {
	if oldSet.Threshold != newSet.Threshold {
		return nil, fmt.Errorf("diff: pattern sets at different thresholds (%v vs %v)",
			oldSet.Threshold, newSet.Threshold)
	}

	oldBy := make(map[string]*patterns.Pattern, len(oldSet.Patterns))
	for _, p := range oldSet.Patterns {
		oldBy[p.Canon] = p
	}
	res := &Result{Counts: make(map[Verdict]int)}
	seen := make(map[string]bool, len(newSet.Patterns))

	for _, np := range newSet.Patterns {
		seen[np.Canon] = true
		e := Entry{Canon: np.Canon, New: np}
		if op, ok := oldBy[np.Canon]; ok {
			e.Old = op
			e.DeltaAvg = np.AvgLag() - op.AvgLag()
			e.DeltaPerceptible = np.PerceptibleCount() - op.PerceptibleCount()
			switch {
			case absDur(e.DeltaAvg) <= opt.absTol(),
				op.AvgLag() > 0 && absDur(e.DeltaAvg) <= trace.Dur(float64(op.AvgLag())*opt.relTol()):
				e.Verdict = Unchanged
			case e.DeltaAvg > 0:
				e.Verdict = Regressed
			default:
				e.Verdict = Improved
			}
		} else {
			e.Verdict = Appeared
			e.DeltaPerceptible = np.PerceptibleCount()
		}
		res.Entries = append(res.Entries, e)
	}
	for _, op := range oldSet.Patterns {
		if seen[op.Canon] {
			continue
		}
		res.Entries = append(res.Entries, Entry{
			Canon: op.Canon, Old: op, Verdict: Disappeared,
			DeltaPerceptible: -op.PerceptibleCount(),
		})
	}

	for _, p := range oldSet.Patterns {
		res.OldPerceptible += p.PerceptibleCount()
	}
	for _, p := range newSet.Patterns {
		res.NewPerceptible += p.PerceptibleCount()
	}
	for _, e := range res.Entries {
		res.Counts[e.Verdict]++
	}

	severity := map[Verdict]int{Regressed: 0, Appeared: 1, Disappeared: 2, Improved: 3, Unchanged: 4}
	sort.SliceStable(res.Entries, func(i, j int) bool {
		a, b := res.Entries[i], res.Entries[j]
		if severity[a.Verdict] != severity[b.Verdict] {
			return severity[a.Verdict] < severity[b.Verdict]
		}
		if a.DeltaPerceptible != b.DeltaPerceptible {
			return a.DeltaPerceptible > b.DeltaPerceptible
		}
		return absDur(a.DeltaAvg) > absDur(b.DeltaAvg)
	})
	return res, nil
}

func absDur(d trace.Dur) trace.Dur {
	if d < 0 {
		return -d
	}
	return d
}

// Format renders the comparison as a text report (up to limit entries;
// 0 means all non-unchanged entries plus a summary).
func (r *Result) Format(limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "patterns: %d regressed, %d appeared, %d disappeared, %d improved, %d unchanged\n",
		r.Counts[Regressed], r.Counts[Appeared], r.Counts[Disappeared], r.Counts[Improved], r.Counts[Unchanged])
	fmt.Fprintf(&b, "perceptible episodes: %d -> %d\n\n", r.OldPerceptible, r.NewPerceptible)

	shown := 0
	for _, e := range r.Entries {
		if e.Verdict == Unchanged {
			continue
		}
		if limit > 0 && shown >= limit {
			fmt.Fprintf(&b, "...\n")
			break
		}
		shown++
		canon := e.Canon
		if len(canon) > 60 {
			canon = canon[:57] + "..."
		}
		switch e.Verdict {
		case Appeared:
			fmt.Fprintf(&b, "%-11s ×%-5d avg %-9v %s\n", e.Verdict, e.New.Count(), e.New.AvgLag(), canon)
		case Disappeared:
			fmt.Fprintf(&b, "%-11s ×%-5d avg %-9v %s\n", e.Verdict, e.Old.Count(), e.Old.AvgLag(), canon)
		default:
			fmt.Fprintf(&b, "%-11s ×%-5d avg %v -> %v (Δ%+.1fms, perceptible %+d)  %s\n",
				e.Verdict, e.New.Count(), e.Old.AvgLag(), e.New.AvgLag(),
				e.DeltaAvg.Ms(), e.DeltaPerceptible, canon)
		}
	}
	if shown == 0 {
		b.WriteString("no pattern-level changes beyond tolerance\n")
	}
	return b.String()
}
