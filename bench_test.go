package lagalyzer

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (Section IV), an end-to-end study benchmark
// matching the paper's "7.5 hours of sessions analyzed in 15 minutes"
// claim, trace-codec throughput benchmarks, and ablation benchmarks
// for the design decisions DESIGN.md calls out.
//
// Figure/table benchmarks measure the *analysis* cost on a fixed,
// pre-simulated workload; workload generation itself is measured by
// BenchmarkSimulateSession and the end-to-end benchmark.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/checkpoint"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/obs/selftrace"
	"lagalyzer/internal/patterns"
	"lagalyzer/internal/report"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
	"lagalyzer/internal/viz"
)

// benchSuite simulates a fixed GanttProject suite once; all per-figure
// benchmarks analyze it.
var benchSuite = sync.OnceValue(func() *trace.Suite {
	suite := &trace.Suite{App: "GanttProject"}
	for i := 0; i < 2; i++ {
		s, err := sim.Run(sim.Config{Profile: apps.GanttProject(), SessionID: i, Seed: 7})
		if err != nil {
			panic(err)
		}
		suite.Sessions = append(suite.Sessions, s)
	}
	return suite
})

// benchStudy runs a scaled-down full study once for figure benchmarks
// that need all 14 applications.
var benchStudy = sync.OnceValue(func() *report.StudyResult {
	res, err := report.RunStudy(report.StudyConfig{Seed: 7, SessionsPerApp: 1, SessionSeconds: 60})
	if err != nil {
		panic(err)
	}
	return res
})

func BenchmarkTableII_Catalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(apps.Catalog()) != 14 {
			b.Fatal("catalog incomplete")
		}
	}
}

func BenchmarkTableIII_Overview(b *testing.B) {
	b.ReportAllocs()
	suite := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := OverviewOf(suite, trace.DefaultPerceptibleThreshold)
		if o.Traced == 0 {
			b.Fatal("empty overview")
		}
	}
	b.ReportMetric(benchEpisodes(suite), "episodes")
}

func benchEpisodes(suite *trace.Suite) float64 {
	n := 0
	for _, s := range suite.Sessions {
		n += len(s.Episodes)
	}
	return float64(n)
}

func BenchmarkFigure1_Sketch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(report.Figure1SVG()) == 0 {
			b.Fatal("empty sketch")
		}
	}
}

func BenchmarkFigure2_DeepSketch(b *testing.B) {
	b.ReportAllocs()
	suite := benchSuite()
	s := suite.Sessions[0]
	var deepest *trace.Episode
	best := -1
	for _, e := range s.Episodes {
		if d := e.Root.Descendants(); d > best {
			deepest, best = e, d
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(viz.Sketch(s, deepest, viz.SketchOptions{})) == 0 {
			b.Fatal("empty sketch")
		}
	}
	b.ReportMetric(float64(best), "descendants")
}

func BenchmarkFigure3_PatternCDF(b *testing.B) {
	b.ReportAllocs()
	suite := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := patterns.Classify(suite.Sessions, patterns.Options{})
		if len(set.CDF()) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkFigure4_Occurrence(b *testing.B) {
	b.ReportAllocs()
	set := patterns.Classify(benchSuite().Sessions, patterns.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(set.OccurrenceCounts()) == 0 {
			b.Fatal("no occurrence classes")
		}
	}
	b.ReportMetric(float64(len(set.Patterns)), "patterns")
}

func BenchmarkFigure5_Triggers(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := Triggers(sessions, trace.DefaultPerceptibleThreshold, true)
		if ts.Total == 0 {
			b.Fatal("no perceptible episodes")
		}
	}
}

func BenchmarkFigure6_Location(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := Location(sessions, trace.DefaultPerceptibleThreshold, true)
		if loc.EpisodeTime == 0 {
			b.Fatal("no episode time")
		}
	}
}

func BenchmarkFigure7_Concurrency(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := Concurrency(sessions, trace.DefaultPerceptibleThreshold, false); n == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure8_Causes(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := Causes(sessions, trace.DefaultPerceptibleThreshold, true); c.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkStudy_EndToEnd simulates and analyzes a scaled-down full
// study per iteration. The paper's reference point: ~250'000 episodes
// from 7.5 h of sessions, fully analyzed in 15 minutes (including
// MATLAB chart generation).
func BenchmarkStudy_EndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := report.RunStudy(report.StudyConfig{Seed: uint64(i), SessionsPerApp: 1, SessionSeconds: 30})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalEpisodes()), "episodes")
	}
}

// checkpointSuites simulates the benchmark's paper_study workload once:
// the 14 catalog applications, one 240 s session each at seed 42.
var checkpointSuites = sync.OnceValue(func() []*trace.Suite {
	var suites []*trace.Suite
	for _, p := range apps.Catalog() {
		s, err := sim.Run(sim.Config{Profile: p, Seed: 42, SessionSeconds: 240})
		if err != nil {
			panic(err)
		}
		suites = append(suites, &trace.Suite{App: p.Name, Sessions: []*trace.Session{s}})
	}
	return suites
})

// BenchmarkCheckpointSave persists the 14-app suite set to a fresh
// checkpoint store per iteration: the study's critical-path cost of
// -out (Flatten, the v2 writer, SHA-256, atomic writes).
func BenchmarkCheckpointSave(b *testing.B) {
	b.ReportAllocs()
	suites := checkpointSuites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := checkpoint.Open(filepath.Join(b.TempDir(), "ckpt"), "bench")
		if err != nil {
			b.Fatal(err)
		}
		for _, su := range suites {
			if err := st.Save(su); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCheckpointLoad restores the 14-app suite set from a store
// per iteration: the resume path (read, SHA-256, strict v2 decode,
// treebuild).
func BenchmarkCheckpointLoad(b *testing.B) {
	b.ReportAllocs()
	suites := checkpointSuites()
	st, err := checkpoint.Open(filepath.Join(b.TempDir(), "ckpt"), "bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, su := range suites {
		if err := st.Save(su); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, su := range suites {
			if _, ok := st.Load(su.App); !ok {
				b.Fatalf("%s: checkpoint miss", su.App)
			}
		}
	}
}

// benchTraceDir writes the shared ingestion corpus — two applications,
// eight sessions — choosing each file's encoding via pick(sessionID).
func benchTraceDir(b *testing.B, pick func(id int) lila.WriteOptions) (string, int) {
	b.Helper()
	dir := b.TempDir()
	files := 0
	for ai, p := range []func() *sim.Profile{apps.GanttProject, apps.SwingSet} {
		for id := 0; id < 4; id++ {
			s, err := sim.Run(sim.Config{Profile: p(), SessionID: id, Seed: 7, SessionSeconds: 10})
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := lila.WriteSessionOptions(&buf, pick(id), s); err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("app%d_session%d.lila", ai, id)
			if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				b.Fatal(err)
			}
			files++
		}
	}
	return dir, files
}

func benchLoadTraceDir(b *testing.B, dir string, files int, o report.LoadOptions) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suites, _, err := report.LoadTraceDirOptions(dir, o)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, s := range suites {
			total += len(s.Sessions)
		}
		if total != files {
			b.Fatalf("loaded %d sessions, want %d", total, files)
		}
	}
	b.ReportMetric(float64(files), "files")
}

// BenchmarkLoadTraceDir measures the on-disk ingestion path end to
// end: directory scan, format sniffing, concurrent decode (interner,
// record arenas, stack dedup), session rebuild, and the deterministic
// suite merge. The corpus — two applications, eight sessions, both v1
// encodings — is written once outside the timed loop.
func BenchmarkLoadTraceDir(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchTraceDir(b, func(id int) lila.WriteOptions {
		if id%2 == 1 {
			return lila.WriteOptions{Format: lila.FormatText}
		}
		return lila.WriteOptions{Format: lila.FormatBinary}
	})
	benchLoadTraceDir(b, dir, files, report.LoadOptions{})
}

// BenchmarkLoadTraceDirV2 is the same corpus stored block-indexed: the
// mmap + pre-interned-table decode path, no per-record interning and no
// stream framing. Compare against BenchmarkLoadTraceDir for the v2
// ingestion win.
func BenchmarkLoadTraceDirV2(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchTraceDir(b, func(int) lila.WriteOptions { return lila.WriteOptions{Format: lila.FormatV2} })
	benchLoadTraceDir(b, dir, files, report.LoadOptions{})
}

// BenchmarkLoadTraceDirV2Compressed is the same corpus with
// flate-compressed blocks: every block pays one crc + inflate on
// decode. Compare against BenchmarkLoadTraceDirV2 for the decode cost
// of the ~2x size reduction.
func BenchmarkLoadTraceDirV2Compressed(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchTraceDir(b, func(int) lila.WriteOptions {
		return lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}
	})
	benchLoadTraceDir(b, dir, files, report.LoadOptions{})
}

// BenchmarkLoadTraceDirV2_GUIOnly loads the v2 corpus through the block
// index with a GUI-thread filter: worker-only blocks are skipped
// without decoding, the headline selective-decode case.
func BenchmarkLoadTraceDirV2_GUIOnly(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchTraceDir(b, func(int) lila.WriteOptions { return lila.WriteOptions{Format: lila.FormatV2} })
	benchLoadTraceDir(b, dir, files, report.LoadOptions{GUIOnly: true})
}

// benchDaemonHeavyDir hand-builds a corpus where daemon threads
// dominate: eight worker threads each producing long runs of
// call/sample/return triples between sparse GUI episodes, stored with
// small blocks so most blocks carry no GUI-thread bit at all. This is
// the corpus where block skipping should actually pay — the simulated
// sessions above are GUI-dominated, which is why their GUIOnly numbers
// barely move.
func benchDaemonHeavyDir(b *testing.B) (string, int) {
	b.Helper()
	dir := b.TempDir()
	const daemons = 8
	for file := 0; file < 2; file++ {
		h := lila.Header{App: "daemonheavy", SessionID: file, GUIThread: 1,
			FilterThreshold: trace.Ms(3), SamplePeriod: trace.Ms(10)}
		recs := []*lila.Record{{Type: lila.RecThread, Thread: 1, Name: "AWT-EventQueue-0"}}
		for d := 0; d < daemons; d++ {
			recs = append(recs, &lila.Record{Type: lila.RecThread, Thread: trace.ThreadID(2 + d),
				Name: fmt.Sprintf("Worker-%d", d), Daemon: true})
		}
		tm := trace.Time(trace.Ms(1))
		step := trace.Time(trace.Ms(1))
		for ep := 0; ep < 100; ep++ {
			recs = append(recs,
				&lila.Record{Type: lila.RecCall, Time: tm, Thread: 1, Kind: trace.KindDispatch},
				&lila.Record{Type: lila.RecCall, Time: tm, Thread: 1, Kind: trace.KindListener, Class: "app.Button", Method: "actionPerformed"},
				&lila.Record{Type: lila.RecReturn, Time: tm + step, Thread: 1},
				&lila.Record{Type: lila.RecReturn, Time: tm + step, Thread: 1})
			tm += 2 * step
			for i := 0; i < 100; i++ {
				id := trace.ThreadID(2 + (ep*100+i)%daemons)
				recs = append(recs,
					&lila.Record{Type: lila.RecCall, Time: tm, Thread: id, Kind: trace.KindListener, Class: "app.Worker", Method: "run"},
					&lila.Record{Type: lila.RecSample, Time: tm, Thread: id, State: trace.StateRunnable,
						Stack: []trace.Frame{{Class: "app.Worker", Method: "run"}}},
					&lila.Record{Type: lila.RecReturn, Time: tm + step, Thread: id})
				tm += step
			}
		}
		recs = append(recs, &lila.Record{Type: lila.RecEnd, Time: tm, Count: daemons + 1})

		var buf bytes.Buffer
		w, err := lila.NewV2WriterOptions(&buf, h, lila.V2WriterOptions{BlockRecords: 512})
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("daemonheavy_%d.lila", file)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dir, 2
}

// BenchmarkLoadTraceDirV2_DaemonHeavy is the full-load baseline for the
// daemon-heavy corpus; BenchmarkLoadTraceDirV2_GUIOnlyDaemonHeavy is
// the selective load that gets to skip the ~90% of blocks holding only
// worker records.
func BenchmarkLoadTraceDirV2_DaemonHeavy(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchDaemonHeavyDir(b)
	benchLoadTraceDir(b, dir, files, report.LoadOptions{})
}

func BenchmarkLoadTraceDirV2_GUIOnlyDaemonHeavy(b *testing.B) {
	b.ReportAllocs()
	dir, files := benchDaemonHeavyDir(b)
	benchLoadTraceDir(b, dir, files, report.LoadOptions{GUIOnly: true})
}

func BenchmarkSimulateSession(b *testing.B) {
	b.ReportAllocs()
	profile := apps.NetBeans()
	for i := 0; i < b.N; i++ {
		s, err := sim.Run(sim.Config{Profile: profile, Seed: uint64(i), SessionSeconds: 60})
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Episodes) == 0 {
			b.Fatal("no episodes")
		}
	}
}

func benchRecords(b *testing.B) ([]*lila.Record, lila.Header) {
	b.Helper()
	recs, h, err := sim.Records(sim.Config{Profile: apps.SwingSet(), Seed: 3, SessionSeconds: 30})
	if err != nil {
		b.Fatal(err)
	}
	return recs, h
}

func benchEncode(b *testing.B, f lila.Format) {
	b.ReportAllocs()
	recs, h := benchRecords(b)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := lila.NewWriter(&buf, f, h)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(len(recs)), "records")
	b.ReportMetric(float64(size)/float64(len(recs)), "bytes/record")
}

func BenchmarkTraceEncode_Text(b *testing.B)   { benchEncode(b, lila.FormatText) }
func BenchmarkTraceEncode_Binary(b *testing.B) { benchEncode(b, lila.FormatBinary) }
func BenchmarkTraceEncode_V2(b *testing.B)     { benchEncode(b, lila.FormatV2) }

func benchDecode(b *testing.B, f lila.Format) {
	b.ReportAllocs()
	recs, h := benchRecords(b)
	var buf bytes.Buffer
	w, err := lila.NewWriter(&buf, f, h)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lila.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("decoded %d of %d records", n, len(recs))
		}
	}
}

func BenchmarkTraceDecode_Text(b *testing.B)   { benchDecode(b, lila.FormatText) }
func BenchmarkTraceDecode_Binary(b *testing.B) { benchDecode(b, lila.FormatBinary) }

// BenchmarkTraceDecode_V2 measures the streaming v2 reader (the sniffed
// NewReader path); BenchmarkTraceDecode_V2Mmap measures the
// random-access path reports actually take (ParseV2 over a byte slice,
// standing in for the mmap'd file).
func BenchmarkTraceDecode_V2(b *testing.B) { benchDecode(b, lila.FormatV2) }

func benchDecodeV2Random(b *testing.B, comp lila.Compression, jobs int) {
	b.ReportAllocs()
	recs, h := benchRecords(b)
	var buf bytes.Buffer
	w, err := lila.NewWriterOptions(&buf, h, lila.WriteOptions{Format: lila.FormatV2, Compression: comp})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := lila.ParseV2(raw, lila.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := v.RecordsJobs(nil, false, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(recs) {
			b.Fatalf("decoded %d of %d records", len(got), len(recs))
		}
	}
}

func BenchmarkTraceDecode_V2Mmap(b *testing.B) {
	benchDecodeV2Random(b, lila.CompressionNone, 1)
}

// BenchmarkTraceDecode_V2Compressed is the random-access decode of the
// same trace with flate-compressed blocks: crc + inflate per block on
// top of the V2Mmap baseline.
func BenchmarkTraceDecode_V2Compressed(b *testing.B) {
	benchDecodeV2Random(b, lila.CompressionFlate, 1)
}

// BenchmarkTraceDecode_V2ParallelBlocks inflates and decodes blocks on
// a worker pool sized to GOMAXPROCS — run with -cpu 1,4 to see the
// intra-file scaling (output is pinned byte-identical across worker
// counts by TestV2ParallelDecodeDeterminism).
func BenchmarkTraceDecode_V2ParallelBlocks(b *testing.B) {
	benchDecodeV2Random(b, lila.CompressionFlate, runtime.GOMAXPROCS(0))
}

// --- Ablations (design decisions of Section II) ---

// BenchmarkAblation_FingerprintGC compares pattern counts with and
// without GC exclusion. Including GC nodes splits classes that differ
// only by an incidental collection (the paper's §II-D rationale for
// excluding them).
func BenchmarkAblation_FingerprintGC(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	var withGC, withoutGC int
	for i := 0; i < b.N; i++ {
		withoutGC = len(patterns.Classify(sessions, patterns.Options{}).Patterns)
		withGC = len(patterns.Classify(sessions, patterns.Options{IncludeGC: true}).Patterns)
	}
	b.ReportMetric(float64(withoutGC), "patterns(paper)")
	b.ReportMetric(float64(withGC), "patterns(include-gc)")
	if withGC < withoutGC {
		b.Fatal("including GC nodes cannot merge patterns")
	}
}

// BenchmarkAblation_FingerprintSymbols compares pattern counts with
// and without symbolic information. Kind-only trees collapse distinct
// behaviours into one class, losing the browser's diagnostic value.
func BenchmarkAblation_FingerprintSymbols(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	b.ResetTimer()
	var full, kindOnly int
	for i := 0; i < b.N; i++ {
		full = len(patterns.Classify(sessions, patterns.Options{}).Patterns)
		kindOnly = len(patterns.Classify(sessions, patterns.Options{KindOnly: true}).Patterns)
	}
	b.ReportMetric(float64(full), "patterns(symbols)")
	b.ReportMetric(float64(kindOnly), "patterns(kind-only)")
	if kindOnly > full {
		b.Fatal("dropping symbols cannot split patterns")
	}
}

// BenchmarkAblation_AsyncReclassify measures the repaint-manager
// special case (§IV-C footnote) on Jmol: with the reclassification
// the animation's episodes are output; without it they count as
// asynchronous.
func BenchmarkAblation_AsyncReclassify(b *testing.B) {
	b.ReportAllocs()
	res := benchStudy()
	jmol, ok := res.AppByName("Jmol")
	if !ok {
		b.Fatal("no Jmol in study")
	}
	ablated := engine.Options{Trigger: analysis.TriggerOptions{NoAsyncReclassify: true}}
	b.ResetTimer()
	var with, without analysis.TriggerShares
	for i := 0; i < b.N; i++ {
		with = engine.Analyze(jmol.Suite, trace.DefaultPerceptibleThreshold, engine.Options{}).TriggerLong
		without = engine.Analyze(jmol.Suite, trace.DefaultPerceptibleThreshold, ablated).TriggerLong
	}
	b.ReportMetric(with.Frac(analysis.TriggerOutput)*100, "output%(paper)")
	b.ReportMetric(without.Frac(analysis.TriggerAsync)*100, "async%(ablated)")
	if with.Frac(analysis.TriggerOutput) <= without.Frac(analysis.TriggerOutput) {
		b.Fatal("reclassification had no effect on Jmol")
	}
}

// BenchmarkAblation_Perturbation quantifies measurement overhead (the
// paper's §V future work): the same session with and without a
// LiLa-like profiler perturbation (10 % instrumentation slowdown plus
// profiler allocations), reporting the perceptible-episode inflation.
func BenchmarkAblation_Perturbation(b *testing.B) {
	b.ReportAllocs()
	profile := apps.ArgoUML()
	frac := func(s *trace.Session) float64 {
		if len(s.Episodes) == 0 {
			return 0
		}
		return float64(len(s.PerceptibleEpisodes(trace.DefaultPerceptibleThreshold))) /
			float64(len(s.Episodes)) * 100
	}
	var clean, perturbed float64
	for i := 0; i < b.N; i++ {
		c, err := sim.Run(sim.Config{Profile: profile, Seed: 5, SessionSeconds: 120})
		if err != nil {
			b.Fatal(err)
		}
		p, err := sim.Run(sim.Config{Profile: profile, Seed: 5, SessionSeconds: 120,
			Perturbation: &sim.Perturbation{SlowdownFactor: 1.1, ExtraAllocMBPerSec: 20}})
		if err != nil {
			b.Fatal(err)
		}
		clean, perturbed = frac(c), frac(p)
	}
	b.ReportMetric(clean, "perceptible%(clean)")
	b.ReportMetric(perturbed, "perceptible%(perturbed)")
	if perturbed <= clean {
		b.Log("note: perturbation did not inflate the perceptible fraction this run")
	}
}

// BenchmarkThresholdSweep measures the perceptibility-threshold
// sensitivity analysis and reports how the perceptible count moves
// across the literature's thresholds.
func BenchmarkThresholdSweep(b *testing.B) {
	b.ReportAllocs()
	sessions := benchSuite().Sessions
	var points []ThresholdPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = ThresholdSweep(sessions, nil)
	}
	b.ReportMetric(float64(points[0].Episodes), "episodes@100ms")
	b.ReportMetric(float64(points[len(points)-1].Episodes), "episodes@225ms")
}

// BenchmarkStreamingAnalysis compares the single-pass analyzer's
// throughput against full session reconstruction on the same records.
func BenchmarkStreamingAnalysis(b *testing.B) {
	b.ReportAllocs()
	recs, h := benchRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := stream.AnalyzeRecords(h, recs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if st.Episodes == 0 {
			b.Fatal("no episodes")
		}
	}
	b.ReportMetric(float64(len(recs)), "records")
}

// BenchmarkFullRebuild is the baseline for BenchmarkStreamingAnalysis:
// treebuild plus the batch engine.
func BenchmarkFullRebuild(b *testing.B) {
	b.ReportAllocs()
	recs, h := benchRecords(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := treebuild.BuildRecords(h, recs)
		if err != nil {
			b.Fatal(err)
		}
		engine.Analyze(&trace.Suite{Sessions: []*trace.Session{s}}, trace.DefaultPerceptibleThreshold, engine.Options{})
	}
}

// BenchmarkSessionTimeline renders the whole-session timeline.
func BenchmarkSessionTimeline(b *testing.B) {
	b.ReportAllocs()
	s := benchSuite().Sessions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(viz.Timeline(s, viz.TimelineOptions{})) == 0 {
			b.Fatal("empty timeline")
		}
	}
	b.ReportMetric(float64(len(s.Episodes)), "episodes")
}

// --- Analysis engine (internal/engine, fused single-pass pipeline) ---

// BenchmarkAnalyzeSuite measures the full per-application analysis —
// classification, overview, and all four figure analyses on both
// populations — which the engine computes in one traversal per
// episode. This is the headline number for the paper's "7.5 hours of
// sessions in 15 minutes" claim.
func BenchmarkAnalyzeSuite(b *testing.B) {
	b.ReportAllocs()
	suite := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := report.AnalyzeSuite(suite, trace.DefaultPerceptibleThreshold)
		if a.Overview.Traced == 0 || len(a.Pooled.Patterns) == 0 {
			b.Fatal("empty analysis")
		}
	}
	b.ReportMetric(benchEpisodes(suite), "episodes")
}

// BenchmarkAnalyzeSuiteSelfProfiled is BenchmarkAnalyzeSuite with
// self-profiling on: an obs.Trace on the context records every phase
// span, and the iterations' spans are encoded as a LiLa v2 self-trace
// after the timer stops. Compare against BenchmarkAnalyzeSuite to pin
// the enabled-path overhead (budget: < 5%); the disabled path staying
// zero-alloc is guarded by obs.TestDisabledPathDoesNotAllocate.
func BenchmarkAnalyzeSuiteSelfProfiled(b *testing.B) {
	b.ReportAllocs()
	suite := benchSuite()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := report.AnalyzeSuiteContext(ctx, suite, trace.DefaultPerceptibleThreshold)
		if a.Overview.Traced == 0 || len(a.Pooled.Patterns) == 0 {
			b.Fatal("empty analysis")
		}
	}
	b.StopTimer()
	data, err := selftrace.Encode(tr, selftrace.Options{App: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(data)), "selftrace-bytes")
	b.ReportMetric(benchEpisodes(suite), "episodes")
}

// BenchmarkClassifyParallel measures hash-first classification on a
// workload large enough to span several shards (all 14 applications'
// sessions pooled), exercising the chunked build-and-merge path.
func BenchmarkClassifyParallel(b *testing.B) {
	b.ReportAllocs()
	var sessions []*trace.Session
	for _, a := range benchStudy().Apps {
		sessions = append(sessions, a.Suite.Sessions...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := patterns.Classify(sessions, patterns.Options{})
		if len(set.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
	n := 0
	for _, s := range sessions {
		n += len(s.Episodes)
	}
	b.ReportMetric(float64(n), "episodes")
}
