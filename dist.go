package lagalyzer

import (
	"lagalyzer/internal/diff"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stats"
)

// Distribution types, re-exported so callers can define their own
// application profiles (behavior durations, think times, GC pauses)
// against the public API alone.
type (
	// Dist is a one-dimensional probability distribution.
	Dist = stats.Dist
	// IntDist is a distribution over non-negative integers.
	IntDist = stats.IntDist

	// ConstDist always returns V.
	ConstDist = stats.Const
	// UniformDist is uniform on [Lo, Hi).
	UniformDist = stats.Uniform
	// ExpDist is exponential with the given mean.
	ExpDist = stats.Exp
	// LogNormalDist is log-normal with the given median and sigma.
	LogNormalDist = stats.LogNormal
	// ParetoDist is a power law with scale Xm and shape Alpha.
	ParetoDist = stats.Pareto
	// ClampedDist clamps another distribution to [Lo, Hi].
	ClampedDist = stats.Clamped
	// MixtureDist draws from weighted component distributions.
	MixtureDist = stats.Mixture

	// ConstIntDist always returns V.
	ConstIntDist = stats.ConstInt
	// UniformIntDist is uniform on [Lo, Hi] inclusive.
	UniformIntDist = stats.UniformInt
	// GeometricIntDist continues past Lo with probability P.
	GeometricIntDist = stats.Geometric
)

// NewMixture builds a MixtureDist; it panics on mismatched or empty
// component lists.
func NewMixture(weights []float64, comps []Dist) *MixtureDist {
	return stats.NewMixture(weights, comps)
}

// Profile building blocks, re-exported for custom applications.
type (
	// Behavior is one kind of episode: a duration distribution plus
	// the structural template below the dispatch interval.
	Behavior = sim.Behavior
	// Node is the template of one interval in an episode's tree.
	Node = sim.Node
	// StateMix gives the blocked/waiting/sleeping fractions of a
	// node's self time.
	StateMix = sim.StateMix
	// Timer is an EDT event source with its own cadence.
	Timer = sim.Timer
	// HeapConfig parameterizes the stop-the-world collector model.
	HeapConfig = sim.HeapConfig
	// BackgroundThread models a non-EDT thread's visible behaviour.
	BackgroundThread = sim.BackgroundThread
)

// Pattern-set comparison (regression detection between two runs).
type (
	// DiffOptions tune pattern-set comparison.
	DiffOptions = diff.Options
	// DiffResult is a full comparison of two pattern sets.
	DiffResult = diff.Result
	// DiffEntry is one pattern's comparison.
	DiffEntry = diff.Entry
	// DiffVerdict classifies one pattern's movement.
	DiffVerdict = diff.Verdict
)

// Diff verdicts.
const (
	DiffUnchanged   = diff.Unchanged
	DiffImproved    = diff.Improved
	DiffRegressed   = diff.Regressed
	DiffAppeared    = diff.Appeared
	DiffDisappeared = diff.Disappeared
)

// ComparePatterns aligns two pattern sets by structural fingerprint
// and reports regressions, improvements, and appearing/disappearing
// patterns. Both sets must have been built at the same threshold.
func ComparePatterns(oldSet, newSet *PatternSet, opt DiffOptions) (*DiffResult, error) {
	return diff.Compare(oldSet, newSet, opt)
}
