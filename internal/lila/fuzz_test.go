package lila_test

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// corpus returns seed inputs for the parser fuzzers: one small valid
// trace per format, one simulated session per format, and a handful of
// near-valid mutations.
func corpus(t testing.TB) [][]byte {
	var out [][]byte
	h := lila.Header{App: "fuzz", GUIThread: 1, FilterThreshold: trace.Ms(3), SamplePeriod: trace.Ms(10)}
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		var buf bytes.Buffer
		w, err := lila.NewWriter(&buf, f, h)
		if err != nil {
			t.Fatal(err)
		}
		recs := []*lila.Record{
			{Type: lila.RecThread, Thread: 1, Name: "edt"},
			{Type: lila.RecCall, Time: 10, Thread: 1, Kind: trace.KindDispatch},
			{Type: lila.RecCall, Time: 12, Thread: 1, Kind: trace.KindListener, Class: "a.B", Method: "on"},
			{Type: lila.RecGCStart, Time: 15, Major: true},
			{Type: lila.RecGCEnd, Time: 20},
			{Type: lila.RecSample, Time: 25, Thread: 1, State: trace.StateRunnable,
				Stack: []trace.Frame{{Class: "a.B", Method: "on"}}},
			{Type: lila.RecReturn, Time: 30, Thread: 1},
			{Type: lila.RecReturn, Time: 31, Thread: 1},
			{Type: lila.RecEnd, Time: 100, Count: 3},
		}
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	// A flate-compressed v2 trace seeds the fuzzers near the inflate
	// path: block CRCs over the stored bytes, the count==0 header
	// escape, and the inflated-length bound check.
	{
		var buf bytes.Buffer
		w, err := lila.NewWriterOptions(&buf, h, lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range compressibleRecords() {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	// A simulated session seeds them where release-mode builds recycle:
	// traced episodes that nest, GCs inside them, and samples.
	recs, sh, err := sim.Records(sim.Config{Profile: apps.Jmol(), Seed: 5, SessionSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []lila.WriteOptions{
		{Format: lila.FormatText},
		{Format: lila.FormatV2},
		{Format: lila.FormatV2, Compression: lila.CompressionFlate},
	} {
		var buf bytes.Buffer
		w, err := lila.NewWriterOptions(&buf, sh, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	out = append(out,
		[]byte(""),
		[]byte("#lila text 1\n"),
		[]byte("#lila text 1\n#app \"x\"\n#session 0\n#gui 1\n#filter 0\n#sampleperiod 0\n#start 0\nZ bogus\n"),
		[]byte("LILA\x01"),
		[]byte("LILA\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
		[]byte("LILA\x02junk"),
		[]byte("NOPE\x01rest"),
	)
	return out
}

// compressibleRecords is a repetitive stream long enough that the v2
// writer's flate pass genuinely compresses its blocks (tiny payloads
// stay raw, which would leave the inflate path unseeded).
func compressibleRecords() []*lila.Record {
	recs := []*lila.Record{{Type: lila.RecThread, Thread: 1, Name: "edt"}}
	tm := trace.Time(10)
	for i := 0; i < 200; i++ {
		recs = append(recs,
			&lila.Record{Type: lila.RecCall, Time: tm, Thread: 1, Kind: trace.KindListener, Class: "a.B", Method: "on"},
			&lila.Record{Type: lila.RecSample, Time: tm + 1, Thread: 1, State: trace.StateRunnable,
				Stack: []trace.Frame{{Class: "a.B", Method: "on"}}},
			&lila.Record{Type: lila.RecReturn, Time: tm + 2, Thread: 1})
		tm += 5
	}
	recs = append(recs, &lila.Record{Type: lila.RecEnd, Time: tm, Count: 3})
	return recs
}

// drain reads everything the parser will give, feeding both downstream
// consumers: a full session build and the streaming analyzer's
// release-mode build. The properties under test are "no panic, no
// hang" on arbitrary input and, when the full build succeeds, that the
// release build (which recycles what it drops) succeeds too and folds
// the same statistics as the full build's episodes.
func drain(t testing.TB, data []byte) {
	r, err := lila.NewReader(bytes.NewReader(data))
	if err != nil {
		return
	}
	var recs []*lila.Record
	for i := 0; i < 1<<17; i++ { // hard cap: fuzz inputs must terminate
		rec, err := r.Read()
		if err == io.EOF || err != nil {
			break
		}
		recs = append(recs, rec)
	}
	full, diag, ferr := treebuild.BuildRecords(r.Header(), recs) // errors fine; panics not
	st, err := stream.AnalyzeRecords(r.Header(), recs, 0)
	if ferr == nil {
		if err != nil {
			t.Fatalf("full build succeeds, release build fails: %v", err)
		}
		sameStats(t, st, foldFull(full, diag, len(recs)))
	}
}

// foldFull folds the full build s's episodes into a streaming analyzer
// in close order, as a release build hands them over; records is the
// count of records fed, which a release build's diagnostics carry.
func foldFull(s *trace.Session, diag *treebuild.Diagnostics, records int) *stream.Stats {
	eps := slices.Clone(s.Episodes)
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].End() < eps[j].End() })
	a := stream.NewAnalyzer(0)
	for _, e := range eps {
		a.Episode(s, e)
	}
	d := *diag
	d.Records = records
	return a.Stats(s, &d)
}

// sameStats fails t unless got, a release build's statistics, equals
// want, the full build's. Two episodes closing at one instant on different
// threads may fold in either order, so the duration sum and mean only
// agree to rounding.
func sameStats(t testing.TB, got, want *stream.Stats) {
	t.Helper()
	g, w := *got, *want
	g.Elapsed = 0
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if near(g.Durations.Total, w.Durations.Total) && near(g.Durations.Mean(), w.Durations.Mean()) {
		g.Durations = w.Durations
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("release build folds\n%+v\nfull build's episodes fold\n%+v", g, w)
	}
}

// FuzzReader throws arbitrary bytes at the format sniffer, both
// codecs, the session rebuilder, and the streaming analyzer. Run with
// `go test -fuzz=FuzzReader ./internal/lila` for continuous fuzzing;
// under plain `go test` the seed corpus acts as a robustness test.
func FuzzReader(f *testing.F) {
	for _, seed := range corpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		drain(t, data)
	})
}

// drainSalvage pushes arbitrary bytes through the salvage-mode reader
// and the lenient session builder — the full damaged-trace ingest
// path. The property is "no panic, no hang" plus report consistency.
func drainSalvage(t *testing.T, data []byte) {
	r, err := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{Salvage: true})
	if err != nil {
		return // header damage is allowed to fail
	}
	var recs []*lila.Record
	for i := 0; i < 1<<17; i++ { // hard cap: fuzz inputs must terminate
		rec, err := r.Read()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	rep := lila.SalvageOf(r)
	if rep == nil {
		t.Fatal("salvage-mode reader has no report")
	}
	if rep.RecordsKept < len(recs) {
		t.Fatalf("report kept %d < yielded %d", rep.RecordsKept, len(recs))
	}
	if rep.BytesSkipped < 0 || rep.BytesSkipped > int64(len(data)) {
		t.Fatalf("skipped %d bytes of a %d-byte input", rep.BytesSkipped, len(data))
	}
	full, diag, ferr := treebuild.BuildRecordsOptions(r.Header(), recs, treebuild.Options{Lenient: true})
	a := stream.NewAnalyzer(0)
	s, rdiag, err := treebuild.BuildRecordsOptions(r.Header(), recs, treebuild.Options{Lenient: true, Episode: a.Episode})
	if ferr == nil {
		if err != nil {
			t.Fatalf("lenient full build succeeds, release build fails: %v", err)
		}
		sameStats(t, a.Stats(s, rdiag), foldFull(full, diag, len(recs)))
	}
}

// salvageSeeds augments the shared corpus with faultinject-damaged
// variants of the valid traces so the fuzzers start near the
// interesting resynchronization paths.
func salvageSeeds(t testing.TB) [][]byte {
	seeds := corpus(t)
	var out [][]byte
	for _, s := range seeds {
		out = append(out, s)
		if len(s) < 16 {
			continue
		}
		out = append(out,
			faultinject.TruncateFrac(s, 0.5),
			faultinject.FlipBits(s, 1, 4, len(s)/4, 0),
			faultinject.CorruptRange(s, 2, len(s)/3, len(s)/2),
		)
	}
	return out
}

// FuzzSalvageText fuzzes the text salvage path.
func FuzzSalvageText(f *testing.F) {
	for _, seed := range salvageSeeds(f) {
		if len(seed) > 0 && seed[0] == '#' {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		drainSalvage(t, data)
	})
}

// FuzzSalvageBinaryV2 fuzzes the v2 block-indexed salvage path: footer
// index recovery, per-block checksum drops, and the sequential
// re-framing scan. Seeds are the v2 members of the damaged corpus
// (magic "LILA\x02"); the sniffing entry point is shared, so crossover
// mutations exercise the other formats too. Its property pins the v2
// read paths together: every input that ParseV2 opens yields the same
// records, salvage report and error from Each, at one and at four
// workers, as from Records, and from the stream reader too when it
// opens the input.
func FuzzSalvageBinaryV2(f *testing.F) {
	for _, seed := range salvageSeeds(f) {
		if len(seed) >= 5 && bytes.HasPrefix(seed, []byte("LILA\x02")) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		drainSalvage(t, data)
		// The random-access path sees the same bytes via LoadTraceDir.
		v, err := lila.ParseV2(data, lila.Limits{})
		if err != nil {
			return
		}
		recs, rep, err := v.Records(nil, true)
		if err == nil && rep.RecordsKept < len(recs) {
			t.Fatalf("report kept %d < yielded %d", rep.RecordsKept, len(recs))
		}
		for _, jobs := range []int{1, 4} {
			var each []*lila.Record
			erep, eerr := v.Each(true, jobs, func(rec *lila.Record) error {
				cp := *rec // valid only during this call
				each = append(each, &cp)
				return nil
			})
			if (eerr == nil) != (err == nil) || (err != nil && eerr.Error() != err.Error()) {
				t.Fatalf("Each at %d jobs: error %v, Records error %v", jobs, eerr, err)
			}
			if !reflect.DeepEqual(erep, rep) || (err == nil && !sameRecords(each, recs)) {
				t.Fatalf("Each at %d jobs kept %d records, report %+v; Records kept %d, report %+v",
					jobs, len(each), erep, len(recs), rep)
			}
		}
		r, serr := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{Salvage: true})
		if serr != nil {
			return
		}
		var streamed []*lila.Record
		for serr == nil {
			var rec *lila.Record
			if rec, serr = r.Read(); serr == nil {
				streamed = append(streamed, rec)
			}
		}
		if serr == io.EOF {
			serr = nil
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("file read error %v, stream read error %v", err, serr)
		}
		if err == nil && (!sameRecords(streamed, recs) || !reflect.DeepEqual(lila.SalvageOf(r), rep)) {
			t.Fatalf("stream read kept %d records, report %+v; file read kept %d, report %+v",
				len(streamed), lila.SalvageOf(r), len(recs), rep)
		}
	})
}

// TestParsersSurviveMutations flips bytes of valid traces and checks
// nothing panics — a deterministic slice of what FuzzReader explores.
func TestParsersSurviveMutations(t *testing.T) {
	for _, seed := range corpus(t) {
		if len(seed) == 0 {
			continue
		}
		for stride := 1; stride < 17; stride += 3 {
			mutated := bytes.Clone(seed)
			for i := stride; i < len(mutated); i += 13 {
				mutated[i] ^= byte(0x5a + stride)
			}
			drain(t, mutated)
		}
		// Truncations at every eighth offset, or at about 256 offsets
		// of a seed over 2 KiB (a simulated session's).
		for cut := 0; cut < len(seed); cut += max(8, len(seed)/256) {
			drain(t, seed[:cut])
		}
	}
}
