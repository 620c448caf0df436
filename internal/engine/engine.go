// Package engine is the one definition of LagAlyzer's analyses
// (Section IV of the paper) and the fused pipeline that runs them.
// rules.go states each rule once: the trigger classification, the
// per-tick fold behind location, concurrency, and causes, and the
// mergeable population tally with its share derivations. The batch
// pipeline here, the streaming analyzer (internal/stream), the ingest
// batch reference, `lagalyzer stats`, and the root API all drive those
// functions instead of restating them.
//
// The pipeline computes the structural fingerprint, trigger class,
// location shares, cause shares, and concurrency for both populations
// (all and perceptible episodes) in ONE traversal per episode plus one
// scan of its sampling ticks.
//
// Episodes are sharded into fixed-size chunks processed by a bounded
// worker pool and merged in chunk order. Because the chunk layout is a
// function of the input alone (never of the worker count) and the
// merge sequence is fixed, the engine produces byte-identical Results
// for any number of workers, including one.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/trace"
)

// Engine metrics. Counters are flushed in whole-run amounts (one
// atomic add each per Analyze), not per episode, so instrumentation
// overhead stays far below the per-episode budget. None of these
// observations feed back into analysis, so the byte-identical
// sequential-vs-parallel guarantee holds with tracing on.
var (
	mEpisodes = obs.NewCounter("engine_episodes_total",
		"episodes folded through the fused engine")
	mChunks = obs.NewCounter("engine_chunks_total",
		"fixed-size episode chunks processed")
	mShardsMerged = obs.NewCounter("engine_shards_merged_total",
		"shard accumulators merged into the deterministic result")
	mPanicsRecovered = obs.NewCounter("engine_panics_recovered_total",
		"worker panics contained and converted to attributed errors")
)

// Options configure an engine run. The zero value reproduces
// report.AnalyzeSuite's configuration.
type Options struct {
	// Patterns configures the structural fingerprint. Analyze stores
	// the perceptibility threshold into Patterns.Threshold, so callers
	// only set the structural knobs (IncludeGC, KindOnly).
	Patterns patterns.Options
	// Trigger configures the trigger classification.
	Trigger analysis.TriggerOptions
	// Workers bounds the worker pool; 0 means runtime.GOMAXPROCS(0).
	// The result is identical for every value.
	Workers int
}

// Result is everything report.AnalyzeSuite needs for one application.
// The All/Long pairs are the two populations of the paper's figures:
// every traced episode, and only the perceptible (≥ threshold) ones.
type Result struct {
	Overview analysis.Overview
	Pooled   *patterns.Set

	TriggerAll, TriggerLong   analysis.TriggerShares
	LocationAll, LocationLong analysis.LocationShares
	CausesAll, CausesLong     analysis.CauseShares

	ConcurrencyAll, ConcurrencyLong float64
	// TicksAll and TicksLong count the sampling ticks behind the
	// concurrency averages.
	TicksAll, TicksLong int
}

// chunkSize is the number of episodes per work unit. It is a fixed
// constant — never derived from the worker count — so the chunk
// layout, and with it every merge sequence, is identical no matter
// how many workers run.
const chunkSize = 512

// item is one episode together with the session that owns its ticks.
type item struct {
	s *trace.Session
	e *trace.Episode
}

// shard is one worker's private accumulator state.
type shard struct {
	pop     [2]Population // [0] all episodes, [1] perceptible only
	builder *patterns.Builder
}

// Analyze runs the fused pipeline over a suite. threshold is the raw
// perceptibility threshold used for the Long population and the
// overview (report passes a resolved, non-zero value; 0 means every
// episode is perceptible).
func Analyze(suite *trace.Suite, threshold trace.Dur, opts Options) *Result {
	return AnalyzeContext(context.Background(), suite, threshold, opts)
}

// AnalyzeContext is Analyze with observability: when the context
// carries an obs.Trace, the run records an "engine" phase span (with
// alloc delta) plus prepare/classify/merge/overview child spans and
// per-chunk spans attributed to the worker that ran them. With no
// trace installed the span calls are allocation-free no-ops; the only
// residual cost is three atomic counter adds per run.
func AnalyzeContext(ctx context.Context, suite *trace.Suite, threshold trace.Dur, opts Options) *Result {
	r, err := AnalyzeContextErr(ctx, suite, threshold, opts)
	if err != nil {
		// The error-free signature predates panic containment; its
		// callers have no error channel, so a contained panic (or a
		// cancelled context) surfaces the old way.
		panic(err)
	}
	return r
}

// AnalyzeContextErr is AnalyzeContext with fault containment: a panic
// inside a worker is recovered, counted, and returned as an error
// attributed to its chunk, and context cancellation stops the chunk
// fan-out between pickups. The happy path is bit-for-bit identical to
// AnalyzeContext.
func AnalyzeContextErr(ctx context.Context, suite *trace.Suite, threshold trace.Dur, opts Options) (_ *Result, err error) {
	ctx, endEngine := obs.PhaseSpan(ctx, "engine")
	defer endEngine()

	opts.Patterns.Threshold = threshold

	_, endPrep := obs.Span(ctx, "prepare")
	total := 0
	for _, s := range suite.Sessions {
		total += len(s.Episodes)
	}
	items := make([]item, 0, total)
	for _, s := range suite.Sessions {
		for _, e := range s.Episodes {
			items = append(items, item{s, e})
		}
	}
	endPrep()

	chunks := (len(items) + chunkSize - 1) / chunkSize
	shards := make([]*shard, chunks)
	chunkErrs := make([]error, chunks)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}

	runChunk := func(wctx context.Context, ci int) {
		defer func() {
			if r := recover(); r != nil {
				mPanicsRecovered.Add(1)
				chunkErrs[ci] = fmt.Errorf("engine: panic in chunk %d of app %s: %v", ci, suite.App, r)
			}
		}()
		_, endChunk := obs.Span(wctx, "chunk")
		sh := &shard{builder: patterns.NewBuilder(opts.Patterns)}
		shards[ci] = sh
		w := newWalker(opts)
		lo := ci * chunkSize
		hi := min(lo+chunkSize, len(items))
		for ii, it := range items[lo:hi] {
			// Probe cancellation inside the chunk too (every 64 items),
			// so a per-app deadline or shutdown interrupts within tens of
			// episodes instead of only at chunk boundaries. The partial
			// shard is discarded with the run, so determinism is intact.
			if ii%64 == 0 && wctx.Err() != nil {
				chunkErrs[ci] = wctx.Err()
				break
			}
			analyzeItem(sh, w, it, threshold)
		}
		endChunk()
	}

	cctx, endClassify := obs.Span(ctx, "classify")
	if workers <= 1 {
		wctx := obs.WithWorker(cctx, 0)
		for ci := 0; ci < chunks && ctx.Err() == nil; ci++ {
			runChunk(wctx, ci)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				wctx := obs.WithWorker(cctx, w)
				for ctx.Err() == nil {
					ci := int(next.Add(1)) - 1
					if ci >= chunks {
						return
					}
					runChunk(wctx, ci)
				}
			}(w)
		}
		wg.Wait()
	}
	endClassify()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Attribute failures deterministically: the lowest-indexed failing
	// chunk wins no matter which worker hit it first.
	for _, cerr := range chunkErrs {
		if cerr != nil {
			return nil, cerr
		}
	}
	mEpisodes.Add(int64(len(items)))
	mChunks.Add(int64(chunks))

	// Deterministic merge: always in chunk index order, so pattern
	// encounter order and the floating-point lag accumulation are the
	// same no matter which worker processed which chunk.
	_, endMerge := obs.Span(ctx, "merge")
	merged := &shard{builder: patterns.NewBuilder(opts.Patterns)}
	if chunks > 0 {
		merged = shards[0]
		for _, sh := range shards[1:] {
			merged.pop[0].Merge(&sh.pop[0])
			merged.pop[1].Merge(&sh.pop[1])
			merged.builder.Merge(sh.builder)
		}
		mShardsMerged.Add(int64(chunks - 1))
	}
	pooled := merged.builder.Finish()
	endMerge()

	_, endOverview := obs.Span(ctx, "overview")
	r := &Result{
		Overview: overviewOf(suite, threshold, pooled),
		Pooled:   pooled,

		TriggerAll:   merged.pop[0].Trigger,
		TriggerLong:  merged.pop[1].Trigger,
		LocationAll:  merged.pop[0].Location(),
		LocationLong: merged.pop[1].Location(),
		CausesAll:    merged.pop[0].Causes(),
		CausesLong:   merged.pop[1].Causes(),
	}
	r.ConcurrencyAll, r.TicksAll = merged.pop[0].Concurrency()
	r.ConcurrencyLong, r.TicksLong = merged.pop[1].Concurrency()
	endOverview()
	return r, nil
}

// analyzeItem folds one episode into the shard: one tree walk (canon +
// hash + structure + trigger + GC/native time), one tick scan
// (concurrency + causes + location), emitted into the all-episodes
// population and, when perceptible, the long population too.
func analyzeItem(sh *shard, w *walker, it item, threshold trace.Dur) {
	info := w.analyze(it.s, it.e)
	ref := patterns.EpisodeRef{Session: it.s, Episode: it.e}
	if info.Structured {
		sh.builder.Add(ref, info.Print)
	} else {
		sh.builder.AddUnstructured(ref)
	}
	Fold(&sh.pop, it.e, &info, threshold)
}

// overviewOf computes the Table III row from the pooled pattern set
// instead of re-classifying each session: a session's own pattern set
// is exactly the pooled set restricted to its episodes (the canonical
// form — and with it Descendants and Depth — is a function of the
// episode alone), so per-session Dist, #Eps, One-Ep, Descs, and Depth
// fall out of one scan over the pooled patterns' episode lists. The
// floating-point operations replicate the per-session classification's
// order (the reference in oracle_test.go), so the result is identical.
func overviewOf(suite *trace.Suite, threshold trace.Dur, pooled *patterns.Set) analysis.Overview {
	o := analysis.Overview{App: suite.App, Sessions: len(suite.Sessions)}
	ns := len(suite.Sessions)
	if ns == 0 {
		return o
	}

	sessIdx := make(map[*trace.Session]int, ns)
	for i, s := range suite.Sessions {
		sessIdx[s] = i
	}

	var (
		dist     = make([]int, ns)
		covered  = make([]int, ns)
		single   = make([]int, ns)
		descsSum = make([]int, ns)
		depthSum = make([]int, ns)

		counts  = make([]int, ns) // per-pattern scratch
		touched []int
	)
	for _, p := range pooled.Patterns {
		for _, ref := range p.Episodes {
			si := sessIdx[ref.Session]
			if counts[si] == 0 {
				touched = append(touched, si)
			}
			counts[si]++
		}
		for _, si := range touched {
			dist[si]++
			covered[si] += counts[si]
			if counts[si] == 1 {
				single[si]++
			}
			descsSum[si] += p.Descendants
			depthSum[si] += p.Depth
			counts[si] = 0
		}
		touched = touched[:0]
	}

	n := float64(ns)
	for si, s := range suite.Sessions {
		o.E2ESeconds += s.E2E().Seconds() / n
		o.InEpsFrac += s.InEpisodeFrac() / n
		o.Short += float64(s.ShortCount) / n
		o.Traced += float64(len(s.Episodes)) / n
		perceptible := 0
		for _, e := range s.Episodes {
			if e.Perceptible(threshold) {
				perceptible++
			}
		}
		o.Perceptible += float64(perceptible) / n
		if inEps := s.InEpisode(); inEps > 0 {
			o.LongPerMin += float64(perceptible) / (inEps.Seconds() / 60) / n
		}

		o.Dist += float64(dist[si]) / n
		o.CoveredEps += float64(covered[si]) / n
		if dist[si] > 0 {
			o.OneEpFrac += (float64(single[si]) / float64(dist[si])) / n
			o.Descs += (float64(descsSum[si]) / float64(dist[si])) / n
			o.Depth += (float64(depthSum[si]) / float64(dist[si])) / n
		}
	}
	return o
}
