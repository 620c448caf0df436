package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"lagalyzer"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/report"
	"lagalyzer/internal/treebuild"
)

// pass is one sequential in-process run of a workload's layers. Each
// layer call is wrapped in a top-level span named after the layer; the
// program's own spans (engine classify, merge, overview, ...) nest
// below it. An untraced pass runs the same calls with spans off, which
// is what trace_overhead_pct compares against.
type pass struct {
	ctx    context.Context
	tr     *obs.Trace // nil when untraced
	before obs.Snapshot
	start  time.Time
	wall   time.Duration
	vals   map[string]float64
}

func newPass(traced bool) *pass {
	p := &pass{ctx: context.Background(), vals: map[string]float64{}}
	if traced {
		p.tr = obs.NewTrace()
		p.ctx = obs.WithTrace(p.ctx, p.tr)
	}
	p.before = obs.Default().Snapshot()
	p.start = time.Now()
	return p
}

// layer runs fn inside the layer's span.
func (p *pass) layer(name string, fn func(ctx context.Context) error) error {
	ctx, end := obs.Span(p.ctx, name)
	defer end()
	return fn(ctx)
}

// done closes the pass's wall-clock interval; work after it (counting,
// checking) is neither timed nor unattributed.
func (p *pass) done() {
	if p.wall == 0 {
		p.wall = time.Since(p.start)
	}
}

// counter is the change of an obs counter since the pass began. Counters
// are read by name, so one that a later change removes reads 0.
func (p *pass) counter(name string) float64 {
	return float64(counterNow(name) - p.before.Counters[name])
}

func counterNow(name string) int64 { return obs.Default().Snapshot().Counters[name] }

// histogramP50Since is the median, in milliseconds, of the
// observations a histogram received since its snapshot prev.
func histogramP50Since(prev obs.HistogramSnapshot, name string) float64 {
	after, ok := obs.Default().Snapshot().Histograms[name]
	if !ok {
		return 0
	}
	d := obs.HistogramSnapshot{Count: after.Count - prev.Count}
	for i, b := range after.Buckets {
		if i < len(prev.Buckets) {
			b.Count -= prev.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, b)
	}
	return ms(d.Quantile(0.5))
}

// spans sums, in milliseconds, the spans named name: top-level layer
// spans when top, otherwise spans at any depth (the program's own).
func (p *pass) spans(name string, top bool) float64 {
	var sum time.Duration
	for _, s := range p.tr.Export() {
		if s.Name == name && (!top || s.Parent < 0) {
			sum += s.Dur
		}
	}
	return ms(sum)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerRow is one row of the per-layer table written beside the
// self-trace: busy time is the layer spans' total, self time what their
// child spans do not cover.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	BusyMs float64 `json:"busy_ms"`
	SelfMs float64 `json:"self_ms"`
}

// appSegment matches the per-application span names ("app:Jmol") that
// layerTable folds into one row ("app:*").
var appSegment = regexp.MustCompile(`app:[^/]+`)

// layerTable computes busy and self time per span path, over every span
// of the trace (layer spans and the program's own), with per-app spans
// folded together.
func layerTable(tr *obs.Trace) []layerRow {
	spans := tr.Export()
	kids := make([][]obs.SpanExport, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		key := appSegment.ReplaceAllString(s.Path, "app:*")
		r := rows[key]
		if r == nil {
			r = &layerRow{Layer: key}
			rows[key] = r
			order = append(order, key)
		}
		r.Spans++
		r.BusyMs += ms(s.Dur)
		r.SelfMs += ms(s.Dur - covered(s, kids[i]))
	}
	sort.Strings(order)
	out := make([]layerRow, 0, len(order))
	for _, k := range order {
		out = append(out, *rows[k])
	}
	return out
}

// covered is how much of parent's interval the union of its children
// covers (children of a parallel section overlap).
func covered(parent obs.SpanExport, kids []obs.SpanExport) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			sum += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// passBody runs one pass's layers and records its values in p.vals. A
// body that checks outputs after its last layer calls p.done() first,
// so the checks are not timed.
type passBody func(p *pass) error

// repeatPasses alternates traced and untraced passes until d has
// elapsed (at least one of each), stores the per-layer medians of the
// traced passes in r.layers, and writes the last traced pass as a LiLa
// self-trace beside its layer table. The self-trace must load back
// through `lagalyzer report`.
func repeatPasses(ctx context.Context, r *run, d time.Duration, body passBody) error {
	var vals []map[string]float64
	var on, off []float64
	var last *obs.Trace
	start := time.Now()
	for i := 0; len(on) == 0 || len(off) == 0 || time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Each pass starts from a collected heap, so one pass's garbage
		// is not charged to the next.
		runtime.GC()
		p := newPass(i%2 == 0)
		if err := body(p); err != nil {
			return err
		}
		p.done()
		finishLayers(p)
		if p.tr == nil {
			off = append(off, p.wall.Seconds())
			continue
		}
		var attributed time.Duration
		for _, s := range p.tr.Export() {
			if s.Parent < 0 {
				attributed += s.Dur
			}
		}
		p.vals["unattributed_pct"] = 100 * float64(p.wall-attributed) / float64(p.wall)
		vals = append(vals, p.vals)
		on = append(on, p.wall.Seconds())
		last = p.tr
	}
	for name := range vals[0] {
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = v[name]
		}
		r.layers[name] = median(xs)
	}
	r.layers["trace_overhead_pct"] = 100 * (median(on)/median(off) - 1)
	r.samples["pass_traced_s"] = on
	r.samples["pass_plain_s"] = off
	return r.writeSelfTrace(ctx, last)
}

// writeSelfTrace writes the traced pass's spans as a LiLa v2 trace and
// the per-layer table as JSON into the results directory, then checks
// that `lagalyzer report` analyzes the self-trace.
func (r *run) writeSelfTrace(ctx context.Context, tr *obs.Trace) error {
	if err := os.MkdirAll(r.results, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.results, r.stamp)
	lilaPath := base + ".selftrace.lila"
	if err := selftrace.WriteFile(lilaPath, tr, selftrace.Options{App: "lagbench-" + r.workload}); err != nil {
		return fmt.Errorf("writing the self-trace: %w", err)
	}
	b, err := json.MarshalIndent(layerTable(tr), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	p, err := runCLI(ctx, r.bin, "lagalyzer", "report", lilaPath)
	if r.check(err == nil, "lagalyzer report of the self-trace: %v", err) {
		r.check(bytes.Contains(p.stdout, []byte("lagbench-"+r.workload)),
			"lagalyzer report of the self-trace does not name the lagbench-%s session", r.workload)
	}
	return nil
}

// --- Layer calls shared by the workloads' traced passes. ---
//
// They go through the root lagalyzer API where it covers a layer, and
// otherwise through entry points no planned deletion removes: the v2
// writer, OpenV2File + V2File.Records, treebuild.BuildRecords, and the
// report load, analyze, and render functions. Mechanisms that may be
// deleted (the v1 codec, intra-file block decode, the checkpoint store,
// internal/analysis) are measured only from outside, through CLI flags
// and files, or through the root API.

// simulate runs the simulator for sessions 0..n-1 of each app inside
// the "sim" layer and counts the records the sessions flatten to.
func simulate(p *pass, names []string, n int, seed uint64, seconds float64) ([]*lagalyzer.Suite, error) {
	var suites []*lagalyzer.Suite
	err := p.layer("sim", func(context.Context) error {
		for _, name := range names {
			prof, err := lagalyzer.ProfileByName(name)
			if err != nil {
				return err
			}
			suite := &lagalyzer.Suite{App: name}
			for i := 0; i < n; i++ {
				s, err := lagalyzer.Simulate(lagalyzer.SimConfig{Profile: prof, SessionID: i, Seed: seed, SessionSeconds: seconds})
				if err != nil {
					return err
				}
				suite.Sessions = append(suite.Sessions, s)
			}
			suites = append(suites, suite)
		}
		return nil
	})
	for _, su := range suites {
		for _, s := range su.Sessions {
			p.vals["sim.records"] += float64(sessionRecords(s))
		}
	}
	return suites, err
}

// sessionRecords is the number of records a session flattens to: its
// thread declarations, a call and a return per non-GC interval, a GC
// start and end per collection, one sample per thread per tick, and the
// end record.
func sessionRecords(s *lagalyzer.Session) int {
	n := len(s.Threads) + 2*len(s.GCs) + 1
	for _, e := range s.Episodes {
		e.Root.Walk(func(iv *lagalyzer.Interval, _ int) bool {
			if iv.Kind == lagalyzer.KindGC {
				return false
			}
			n += 2
			return true
		})
	}
	for _, t := range s.Ticks {
		n += len(t.Threads)
	}
	return n
}

// encoding names one trace encoding the workloads write.
type encoding struct {
	layer string // encode.<layer> / decode.<layer>
	opts  lila.WriteOptions
}

var (
	encV2      = encoding{"v2", lila.WriteOptions{Format: lila.FormatV2}}
	encV2Flate = encoding{"v2flate", lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}}
)

// encode writes s in enc to w inside the encode layer.
func encode(p *pass, enc encoding, w io.Writer, s *lagalyzer.Session) error {
	cw := &countingWriter{w: w}
	err := p.layer("encode."+enc.layer, func(context.Context) error {
		return lila.WriteSessionOptions(cw, enc.opts, s)
	})
	p.vals["encode.mb"] += float64(cw.n) / (1 << 20)
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// loadV2 decodes a v2 trace file (decode.v2 or decode.v2flate by its
// encoding) and rebuilds the session inside the treebuild layer, both
// while the file is still mapped.
func loadV2(p *pass, path string, enc encoding) (*lagalyzer.Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v, err := lila.OpenV2File(f, lila.Limits{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defer v.Close()
	var recs []*lila.Record
	inflated, skipped := counterNow("lila_blocks_inflated_total"), counterNow("lila_blocks_skipped_total")
	err = p.layer("decode."+enc.layer, func(context.Context) error {
		var err error
		recs, _, err = v.Records(nil, false)
		return err
	})
	p.vals["decode.blocks_inflated"] += float64(counterNow("lila_blocks_inflated_total") - inflated)
	p.vals["decode.blocks_skipped"] += float64(counterNow("lila_blocks_skipped_total") - skipped)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p.vals["decode.records"] += float64(len(recs))
	var s *lagalyzer.Session
	err = p.layer("treebuild", func(context.Context) error {
		var err error
		s, _, err = treebuild.BuildRecords(v.Header(), recs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p.vals["treebuild.episodes"] += float64(len(s.Episodes))
	return s, nil
}

// loadDir loads a trace directory through report.LoadTraceDirContext
// with one decode worker and with the default (one per CPU), inside the
// load.jobs1 and load.jobsN layers, and returns the second load's
// suites.
func loadDir(p *pass, dir string) ([]*lagalyzer.Suite, error) {
	err := p.layer("load.jobs1", func(ctx context.Context) error {
		_, _, err := report.LoadTraceDirContext(ctx, dir, report.LoadOptions{Jobs: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	wait := obs.Default().Snapshot().Histograms["report_pool_task_wait"]
	var suites []*lagalyzer.Suite
	err = p.layer("load.jobsN", func(ctx context.Context) error {
		var err error
		suites, _, err = report.LoadTraceDirContext(ctx, dir, report.LoadOptions{})
		return err
	})
	p.vals["load.pool_wait_p50_ms"] = histogramP50Since(wait, "report_pool_task_wait")
	return suites, err
}

// analyze runs the fused engine over suites inside the engine layer and
// returns the study result.
func analyze(p *pass, suites []*lagalyzer.Suite) *report.StudyResult {
	var res *report.StudyResult
	p.layer("engine", func(ctx context.Context) error {
		res = report.AnalyzeSuitesContext(ctx, suites, 0, nil)
		return nil
	})
	return res
}

// render formats every output lagreport -out writes, inside the render
// layer, and returns the experiments.md text.
func render(p *pass, res *report.StudyResult) string {
	var md string
	var n int
	p.layer("render", func(context.Context) error {
		n += len(report.FormatAll(res))
		for _, svg := range report.Figures(res) {
			n += len(svg)
		}
		md = report.FormatExperimentsMarkdown(res)
		n += len(md)
		n += len(report.FormatHTML(res))
		return nil
	})
	p.vals["render.mb"] = float64(n) / (1 << 20)
	return md
}

// analysisPass runs the characterization analyses `lagalyzer stats`
// prints, through the root API, inside the analysis layer.
func analysisPass(p *pass, sessions []*lagalyzer.Session) {
	th := lagalyzer.PerceptibleThreshold
	p.layer("analysis", func(context.Context) error {
		for _, long := range []bool{false, true} {
			lagalyzer.Triggers(sessions, th, long)
			lagalyzer.Location(sessions, th, long)
			lagalyzer.Concurrency(sessions, th, long)
			lagalyzer.Causes(sessions, th, long)
		}
		lagalyzer.ThresholdSweep(sessions, nil)
		return nil
	})
}

// streamPass runs the single-pass streaming analyzer over an encoded
// trace inside the stream layer.
func streamPass(p *pass, data []byte) error {
	return p.layer("stream", func(context.Context) error {
		_, err := lagalyzer.AnalyzeStream(bytes.NewReader(data), 0)
		return err
	})
}

// finishLayers fills the span-derived values of a traced pass: the busy
// time of every layer and of the engine's own phases, and the counts
// the program's metrics recorded.
func finishLayers(p *pass) {
	if p.tr == nil {
		return
	}
	for _, l := range []string{"sim", "treebuild", "engine", "analysis", "render", "stream"} {
		p.vals[l+".busy_ms"] = p.spans(l, true)
	}
	for _, l := range []string{"encode.v2", "encode.v2flate", "decode.v2", "decode.v2flate", "load.jobs1", "load.jobsN"} {
		p.vals[l+"_ms"] = p.spans(l, true)
	}
	if n := p.vals["load.jobsN_ms"]; n > 0 {
		p.vals["load.speedup"] = p.vals["load.jobs1_ms"] / n
	}
	for _, s := range []string{"classify", "merge", "overview"} {
		p.vals["engine."+s+"_ms"] = p.spans(s, false)
	}
	p.vals["engine.episodes"] = p.counter("engine_episodes_total")
	if unique, dup := p.counter("patterns_unique_total"), p.counter("patterns_episodes_deduped_total"); unique+dup > 0 {
		p.vals["patterns.dedup_ratio"] = dup / (unique + dup)
	}
}

// maskLine blanks line n (1-based; 0 blanks nothing) of s, for
// comparing outputs that differ only in that line.
func maskLine(s string, n int) string {
	lines := strings.Split(s, "\n")
	if n >= 1 && n <= len(lines) {
		lines[n-1] = ""
	}
	return strings.Join(lines, "\n")
}
