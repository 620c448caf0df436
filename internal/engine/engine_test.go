package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
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
	r := Analyze(suite, threshold)

	if want := oracleTriggers(sessions, threshold, false); r.TriggerAll != want {
		t.Errorf("TriggerAll = %+v, want %+v", r.TriggerAll, want)
	}
	if want := oracleTriggers(sessions, threshold, true); r.TriggerLong != want {
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
	got := Analyze(suite, threshold).Overview
	want := oracleOverview(suite, threshold)
	if got != want {
		t.Errorf("Overview = %+v, want %+v", got, want)
	}
	if got.Traced == 0 || got.Dist == 0 {
		t.Errorf("degenerate overview (no episodes or patterns): %+v", got)
	}
}

// TestTriggerOfMatchesOracle drives the incremental trigger rule over
// every simulated episode against the oracle's find-first
// classification.
func TestTriggerOfMatchesOracle(t *testing.T) {
	for _, s := range testSuite().Sessions {
		for _, e := range s.Episodes {
			if got, want := TriggerOf(e), oracleTriggerOf(e); got != want {
				t.Fatalf("episode %d: TriggerOf = %v, oracle %v", e.Index, got, want)
			}
		}
	}
}

// TestEnginePooledMatchesClassify checks that the engine's pooled set
// is the set Classify produces, deeply equal but for the member
// episodes only Classify keeps: the same patterns in the same order,
// with the same tallies.
func TestEnginePooledMatchesClassify(t *testing.T) {
	suite := testSuite()
	got := Analyze(suite, threshold).Pooled
	want := Classify(suite.Sessions)
	for _, q := range want.Patterns {
		if len(q.Episodes) != q.Count() {
			t.Fatalf("pattern %q keeps %d of %d episodes", q.Canon, len(q.Episodes), q.Count())
		}
		q.Episodes = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the pooled set differs from Classify's")
	}
}

// TestFingerprintMatchesOracle checks every simulated episode's
// fingerprint, and its pooled pattern's structure, against the
// oracle's GC-pruned shape.
func TestFingerprintMatchesOracle(t *testing.T) {
	suite := testSuite()
	byCanon := make(map[string]*patterns.Pattern)
	for _, p := range Analyze(suite, threshold).Pooled.Patterns {
		byCanon[p.Canon] = p
	}
	for _, s := range suite.Sessions {
		for _, e := range s.Episodes {
			canon, descs, depth := oracleShape(e.Root)
			if got := Fingerprint(e); got != canon {
				t.Fatalf("episode %d: Fingerprint = %q, oracle %q", e.Index, got, canon)
			}
			p, ok := byCanon[canon]
			if ok != (descs > 0) {
				t.Fatalf("episode %d: pooled %v, oracle descendants %d", e.Index, ok, descs)
			}
			if ok && (p.Descendants != descs || p.Depth != depth) {
				t.Fatalf("pattern %q: descendants/depth %d/%d, oracle %d/%d", canon, p.Descendants, p.Depth, descs, depth)
			}
		}
	}
}

// TestEngineFoldSplitInvariance is the fold's determinism guarantee:
// folds merge in any order and shape. Four sessions, whose IDs are not
// in feed order and two of which tie on Figure 2's size, finish deeply
// equal to one fold over all of them when folded one per session, with
// each session's episodes fed in start order or in reverse, and merged
// in every order and in a tree.
func TestEngineFoldSplitInvariance(t *testing.T) {
	base := testSuite()
	extra, err := sim.Run(sim.Config{Profile: apps.GanttProject(), SessionID: 2, Seed: 7, SessionSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*trace.Session{base.Sessions[0], base.Sessions[1], extra}
	// A copy of the session holding Figure 2's episode, under a higher
	// ID, ties with it on size.
	deepest := Analyze(&trace.Suite{App: base.App, Sessions: sessions}, threshold).Deepest
	twin := *sessions[deepest.ID]
	twin.ID = 3
	suite := &trace.Suite{App: base.App, Sessions: []*trace.Session{extra, &twin, base.Sessions[1], base.Sessions[0]}}
	want := Analyze(suite, threshold)
	if want.Deepest.ID != deepest.ID {
		t.Fatalf("Figure 2's episode comes from session %d, want the lower ID %d of the tie", want.Deepest.ID, deepest.ID)
	}

	for _, reverse := range []bool{false, true} {
		fold := func() []*AppFold {
			var folds []*AppFold
			for _, s := range suite.Sessions {
				f := NewAppFold(threshold)
				for i := range s.Episodes {
					if reverse {
						i = len(s.Episodes) - 1 - i
					}
					f.Episode(s, s.Episodes[i])
				}
				f.CloseSession(s)
				folds = append(folds, f)
			}
			return folds
		}
		check := func(name string, f *AppFold) {
			t.Helper()
			if got := Finish(context.Background(), suite.App, []*AppFold{f}); !reflect.DeepEqual(want, got) {
				t.Errorf("reverse=%v, %s: the merged folds finish differently from one fold", reverse, name)
			}
		}
		var permute func(order, rest []int)
		permute = func(order, rest []int) {
			if len(rest) == 0 {
				folds := fold()
				f := folds[order[0]]
				for _, i := range order[1:] {
					f.Merge(folds[i])
				}
				check(fmt.Sprint("order ", order), f)
				return
			}
			for k := range rest {
				next := append(append([]int(nil), rest[:k]...), rest[k+1:]...)
				permute(append(order, rest[k]), next)
			}
		}
		permute(nil, []int{0, 1, 2, 3})

		folds := fold()
		folds[3].Merge(folds[0])
		folds[1].Merge(folds[2])
		folds[1].Merge(folds[3])
		check("tree (1+2)+(3+0)", folds[1])
	}
}

// TestEngineFoldGobRoundTrip: a closed fold encoded and decoded
// finishes to a result deeply equal to the original fold's — every
// tally bit for bit, Figure 2's copied episode included — alone, merged
// with others, and merged before it was encoded.
func TestEngineFoldGobRoundTrip(t *testing.T) {
	suite := testSuite()
	fold := func() []*AppFold {
		var folds []*AppFold
		for _, s := range suite.Sessions {
			f := NewAppFold(threshold)
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
	d := Analyze(suite, threshold).Deepest
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
	a := Analyze(suite, threshold)
	b := Analyze(suite, threshold)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated Analyze runs differ")
	}
}

// TestEngineZeroThreshold: a zero threshold means every episode is
// perceptible, so the two populations coincide.
func TestEngineZeroThreshold(t *testing.T) {
	suite := testSuite()
	r := Analyze(suite, 0)
	if r.TriggerAll != r.TriggerLong || r.TicksAll != r.TicksLong {
		t.Error("threshold 0 should make the populations identical")
	}
	if r.Overview.Traced != r.Overview.Perceptible {
		t.Errorf("Traced %v != Perceptible %v at threshold 0", r.Overview.Traced, r.Overview.Perceptible)
	}
}

// TestEngineEmptySuite must not panic and must return zero values.
func TestEngineEmptySuite(t *testing.T) {
	r := Analyze(&trace.Suite{App: "empty"}, threshold)
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
	r := Analyze(suite, threshold)
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
