package engine

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
)

// testSuite simulates a small two-session suite once for the package.
var testSuite = sync.OnceValue(func() *trace.Suite {
	suite := &trace.Suite{App: "GanttProject"}
	for i := 0; i < 2; i++ {
		s, err := sim.Run(sim.Config{
			Profile:        apps.GanttProject(),
			SessionID:      i,
			Seed:           7,
			SessionSeconds: 45,
		})
		if err != nil {
			panic(err)
		}
		suite.Sessions = append(suite.Sessions, s)
	}
	return suite
})

const threshold = trace.DefaultPerceptibleThreshold

// TestEngineMatchesLegacyAnalyses checks that the fused single pass
// reproduces every figure the oracle (oracle_test.go) computes in
// separate per-figure passes, on both populations.
func TestEngineMatchesLegacyAnalyses(t *testing.T) {
	suite := testSuite()
	sessions := suite.Sessions
	r := Analyze(suite, threshold, Options{})

	if want := oracleTriggers(sessions, threshold, false, analysis.TriggerOptions{}); r.TriggerAll != want {
		t.Errorf("TriggerAll = %+v, want %+v", r.TriggerAll, want)
	}
	if want := oracleTriggers(sessions, threshold, true, analysis.TriggerOptions{}); r.TriggerLong != want {
		t.Errorf("TriggerLong = %+v, want %+v", r.TriggerLong, want)
	}
	if want := oracleLocation(sessions, threshold, false); r.LocationAll != want {
		t.Errorf("LocationAll = %+v, want %+v", r.LocationAll, want)
	}
	if want := oracleLocation(sessions, threshold, true); r.LocationLong != want {
		t.Errorf("LocationLong = %+v, want %+v", r.LocationLong, want)
	}
	if want := oracleCauses(sessions, threshold, false); r.CausesAll != want {
		t.Errorf("CausesAll = %+v, want %+v", r.CausesAll, want)
	}
	if want := oracleCauses(sessions, threshold, true); r.CausesLong != want {
		t.Errorf("CausesLong = %+v, want %+v", r.CausesLong, want)
	}
	if want, ticks := oracleConcurrency(sessions, threshold, false); r.ConcurrencyAll != want || r.TicksAll != ticks {
		t.Errorf("ConcurrencyAll = %v/%d, want %v/%d", r.ConcurrencyAll, r.TicksAll, want, ticks)
	}
	if want, ticks := oracleConcurrency(sessions, threshold, true); r.ConcurrencyLong != want || r.TicksLong != ticks {
		t.Errorf("ConcurrencyLong = %v/%d, want %v/%d", r.ConcurrencyLong, r.TicksLong, want, ticks)
	}
}

// TestEngineOverviewMatchesLegacy checks the pooled-set derivation of
// Table III against the oracle's per-session classification.
// The derivation replicates the legacy floating-point operation order,
// so the comparison is exact, not within a tolerance.
func TestEngineOverviewMatchesLegacy(t *testing.T) {
	suite := testSuite()
	got := Analyze(suite, threshold, Options{}).Overview
	want := oracleOverview(suite, threshold)
	if got != want {
		t.Errorf("Overview = %+v, want %+v", got, want)
	}
	if got.Traced == 0 || got.Dist == 0 {
		t.Errorf("degenerate overview (no episodes or patterns): %+v", got)
	}
}

// TestTriggerOfMatchesOracle drives the incremental trigger rule over
// every simulated episode, with and without the repaint-manager
// reclassification, against the oracle's find-first classification.
func TestTriggerOfMatchesOracle(t *testing.T) {
	for _, opts := range []analysis.TriggerOptions{{}, {NoAsyncReclassify: true}} {
		for _, s := range testSuite().Sessions {
			for _, e := range s.Episodes {
				if got, want := TriggerOf(e, opts), oracleTriggerOf(e, opts); got != want {
					t.Fatalf("%+v: episode %d: TriggerOf = %v, oracle %v", opts, e.Index, got, want)
				}
			}
		}
	}
}

// TestEnginePooledMatchesClassify checks that the engine's pooled set
// is the same set patterns.Classify produces.
func TestEnginePooledMatchesClassify(t *testing.T) {
	suite := testSuite()
	got := Analyze(suite, threshold, Options{}).Pooled
	want := patterns.Classify(suite.Sessions, patterns.Options{Threshold: threshold})

	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("patterns = %d, want %d", len(got.Patterns), len(want.Patterns))
	}
	for i, p := range got.Patterns {
		q := want.Patterns[i]
		if p.Canon != q.Canon || p.Hash != q.Hash || p.ID() != q.ID() {
			t.Fatalf("pattern %d: %q/%q (%s/%s)", i, p.Canon, q.Canon, p.ID(), q.ID())
		}
		if len(p.Episodes) != len(q.Episodes) {
			t.Fatalf("pattern %q count = %d, want %d", p.Canon, len(p.Episodes), len(q.Episodes))
		}
		for j := range p.Episodes {
			if p.Episodes[j] != q.Episodes[j] {
				t.Fatalf("pattern %q episode %d differs", p.Canon, j)
			}
		}
	}
	if len(got.Unstructured) != len(want.Unstructured) {
		t.Errorf("unstructured = %d, want %d", len(got.Unstructured), len(want.Unstructured))
	}
}

// TestEngineWorkerCountInvariance is the tentpole determinism
// guarantee: one worker and many workers must produce byte-identical
// results, including pattern ordering, IDs, and every floating-point
// figure (reflect.DeepEqual also compares the patterns' unexported
// lag summaries, which only merge identically because the chunk
// layout and merge order are fixed).
func TestEngineWorkerCountInvariance(t *testing.T) {
	suite := testSuite()
	base := Analyze(suite, threshold, Options{Workers: 1})
	for _, workers := range []int{2, 4, 16} {
		r := Analyze(suite, threshold, Options{Workers: workers})
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("workers=%d result differs from workers=1", workers)
		}
	}
}

// TestEngineRepeatable: same inputs, same result, run to run.
func TestEngineRepeatable(t *testing.T) {
	suite := testSuite()
	a := Analyze(suite, threshold, Options{})
	b := Analyze(suite, threshold, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated Analyze runs differ")
	}
}

// TestEngineZeroThreshold: a zero threshold means every episode is
// perceptible, so the two populations coincide.
func TestEngineZeroThreshold(t *testing.T) {
	suite := testSuite()
	r := Analyze(suite, 0, Options{})
	if r.TriggerAll != r.TriggerLong || r.TicksAll != r.TicksLong {
		t.Error("threshold 0 should make the populations identical")
	}
	if r.Overview.Traced != r.Overview.Perceptible {
		t.Errorf("Traced %v != Perceptible %v at threshold 0", r.Overview.Traced, r.Overview.Perceptible)
	}
}

// TestEngineEmptySuite must not panic and must return zero values.
func TestEngineEmptySuite(t *testing.T) {
	r := Analyze(&trace.Suite{App: "empty"}, threshold, Options{})
	if r.Pooled == nil || len(r.Pooled.Patterns) != 0 {
		t.Errorf("empty suite pooled set: %+v", r.Pooled)
	}
	if r.TriggerAll.Total != 0 || r.ConcurrencyAll != 0 {
		t.Error("empty suite produced non-zero figures")
	}
	if r.Overview.Sessions != 0 {
		t.Errorf("Sessions = %d, want 0", r.Overview.Sessions)
	}
}

// TestEngineSharesSane: the derived fractions must be well-formed
// (finite, partitions summing to 1 where defined).
func TestEngineSharesSane(t *testing.T) {
	suite := testSuite()
	r := Analyze(suite, threshold, Options{})
	for _, loc := range []analysis.LocationShares{r.LocationAll, r.LocationLong} {
		if loc.JavaSamples > 0 && math.Abs(loc.App+loc.Library-1) > 1e-9 {
			t.Errorf("App+Library = %v, want 1", loc.App+loc.Library)
		}
	}
	for _, c := range []analysis.CauseShares{r.CausesAll, r.CausesLong} {
		if c.Samples > 0 && math.Abs(c.Blocked+c.Waiting+c.Sleeping+c.Runnable-1) > 1e-9 {
			t.Errorf("cause shares sum to %v, want 1", c.Blocked+c.Waiting+c.Sleeping+c.Runnable)
		}
	}
}
