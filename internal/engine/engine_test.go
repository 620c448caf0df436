package engine

import (
	"bytes"
	"context"
	"encoding/gob"
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
// is the same set patterns.Classify produces: the same patterns in the
// same order, with the same member tallies.
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
		if p.Count() != q.Count() || p.Count() != len(q.Episodes) ||
			p.PerceptibleCount(threshold) != q.PerceptibleCount(threshold) || p.GCCount() != q.GCCount() {
			t.Fatalf("pattern %q tallies: count %d/%d, perceptible %d/%d, gc %d/%d", p.Canon,
				p.Count(), q.Count(), p.PerceptibleCount(threshold), q.PerceptibleCount(threshold), p.GCCount(), q.GCCount())
		}
		if p.MinLag() != q.MinLag() || p.MaxLag() != q.MaxLag() {
			t.Fatalf("pattern %q lag range differs", p.Canon)
		}
	}
	if got.Unstructured != want.Unstructured {
		t.Errorf("unstructured = %d, want %d", got.Unstructured, want.Unstructured)
	}
}

// sameResult compares two results on everything a report renders:
// every share and the Table III row exactly, the patterns by canon and
// tallies, and Figure 2's pick. Only the patterns' float lag sums may
// differ, since folds merge them in another order.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Overview != b.Overview || a.TriggerAll != b.TriggerAll || a.TriggerLong != b.TriggerLong ||
		a.LocationAll != b.LocationAll || a.LocationLong != b.LocationLong ||
		a.CausesAll != b.CausesAll || a.CausesLong != b.CausesLong ||
		a.ConcurrencyAll != b.ConcurrencyAll || a.ConcurrencyLong != b.ConcurrencyLong ||
		a.TicksAll != b.TicksAll || a.TicksLong != b.TicksLong {
		t.Fatalf("results differ:\n%+v\n%+v", a, b)
	}
	if len(a.Pooled.Patterns) != len(b.Pooled.Patterns) || a.Pooled.Unstructured != b.Pooled.Unstructured {
		t.Fatalf("pattern sets differ: %d/%d patterns", len(a.Pooled.Patterns), len(b.Pooled.Patterns))
	}
	for i, p := range a.Pooled.Patterns {
		q := b.Pooled.Patterns[i]
		if p.Canon != q.Canon || p.Count() != q.Count() || p.GCCount() != q.GCCount() ||
			p.Occurrence(threshold) != q.Occurrence(threshold) {
			t.Fatalf("pattern %d differs: %q ×%d vs %q ×%d", i, p.Canon, p.Count(), q.Canon, q.Count())
		}
	}
	if a.Deepest.ID != b.Deepest.ID || !reflect.DeepEqual(a.Deepest.Episodes[0].Root, b.Deepest.Episodes[0].Root) {
		t.Fatalf("Figure 2 pick differs: session %d vs %d", a.Deepest.ID, b.Deepest.ID)
	}
}

// TestEngineFoldSplitInvariance is the fold's determinism guarantee:
// one fold over the whole suite and one fold per session merged in
// session order give the same result, with each session's episodes fed
// in start order or in reverse.
func TestEngineFoldSplitInvariance(t *testing.T) {
	suite := testSuite()
	base := Analyze(suite, threshold, Options{})
	for _, reverse := range []bool{false, true} {
		var folds []*AppFold
		for _, s := range suite.Sessions {
			f := NewAppFold(threshold, Options{})
			for i := range s.Episodes {
				if reverse {
					i = len(s.Episodes) - 1 - i
				}
				f.Episode(s, s.Episodes[i])
			}
			f.CloseSession(s)
			folds = append(folds, f)
		}
		sameResult(t, base, Finish(context.Background(), suite.App, folds))
	}
}

// TestEngineFoldGobRoundTrip: a closed fold encoded and decoded
// finishes to a result deeply equal to the original fold's — every
// tally bit for bit, the pattern lag summaries' running moments and
// Figure 2's copied episode included — alone, merged with others, and
// merged before it was encoded.
func TestEngineFoldGobRoundTrip(t *testing.T) {
	suite := testSuite()
	fold := func() []*AppFold {
		var folds []*AppFold
		for _, s := range suite.Sessions {
			f := NewAppFold(threshold, Options{})
			for _, e := range s.Episodes {
				f.Episode(s, e)
			}
			f.CloseSession(s)
			folds = append(folds, f)
		}
		return folds
	}
	roundTrip := func(folds []*AppFold) []*AppFold {
		out := make([]*AppFold, len(folds))
		for i, f := range folds {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Fatal(err)
			}
			out[i] = new(AppFold)
			if err := gob.NewDecoder(&buf).Decode(out[i]); err != nil {
				t.Fatal(err)
			}
			if out[i].App() != suite.App || out[i].Threshold() != threshold {
				t.Errorf("decoded fold of %q at %v", out[i].App(), out[i].Threshold())
			}
		}
		return out
	}
	ctx := context.Background()
	want := Finish(ctx, suite.App, fold())
	if got := Finish(ctx, suite.App, roundTrip(fold())); !reflect.DeepEqual(want, got) {
		t.Error("decoded folds finish differently from the originals")
	}
	if got := Finish(ctx, suite.App, []*AppFold{fold()[0], roundTrip(fold())[1]}); !reflect.DeepEqual(want, got) {
		t.Error("a decoded fold merges differently from the original")
	}
	// A checkpoint holds an app's folds merged in session order, which
	// is the left fold Finish does.
	merged := fold()
	for _, o := range merged[1:] {
		merged[0].Merge(o)
	}
	decoded := roundTrip(merged[:1])
	if n := decoded[0].Sessions(); n != len(suite.Sessions) {
		t.Errorf("decoded pre-merged fold has %d sessions, want %d", n, len(suite.Sessions))
	}
	if got := Finish(ctx, suite.App, decoded); !reflect.DeepEqual(want, got) {
		t.Error("a decoded pre-merged fold finishes differently from its session folds")
	}
}

// TestEngineDeepestIsFigure2 checks the fold's Figure 2 pick against a
// scan of the held sessions: the largest descendants × depth, the
// first one in session and start order on a tie, copied with its ticks.
func TestEngineDeepestIsFigure2(t *testing.T) {
	suite := testSuite()
	var bestS *trace.Session
	var bestE *trace.Episode
	best := -1
	for _, s := range suite.Sessions {
		for _, e := range s.Episodes {
			if score := e.Root.Descendants() * e.Root.Depth(); score > best {
				bestS, bestE, best = s, e, score
			}
		}
	}
	d := Analyze(suite, threshold, Options{}).Deepest
	e := d.Episodes[0]
	if d.ID != bestS.ID || e.Start() != bestE.Start() {
		t.Fatalf("deepest = session %d at %v; want %d at %v", d.ID, e.Start(), bestS.ID, bestE.Start())
	}
	if e.Root == bestE.Root || !reflect.DeepEqual(e.Root, bestE.Root) {
		t.Error("deepest episode is not a deep copy of the tree")
	}
	if !reflect.DeepEqual(d.EpisodeTicks(e), bestS.EpisodeTicks(bestE)) {
		t.Error("deepest episode's ticks differ from the session's")
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
	if r.Pooled == nil || len(r.Pooled.Patterns) != 0 || r.Deepest != nil {
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
