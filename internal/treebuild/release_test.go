package treebuild_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// summary is everything `lagalyzer stats` prints about one session,
// in comparable form.
type summary struct {
	Traced, Long, Short, GCs, Ticks int
	E2E, InEps                      trace.Dur
	Trigger                         [2]analysis.TriggerShares
	Location                        [2]analysis.LocationShares
	Causes                          [2]analysis.CauseShares
	Concurrency                     [2]float64
	ConcurrencyTicks                [2]int
	Sweep                           []analysis.ThresholdPoint
}

// fullSummary is the batch reference: a full build, one engine run,
// and the session-level threshold sweep.
func fullSummary(t *testing.T, s *trace.Session) summary {
	t.Helper()
	th := trace.DefaultPerceptibleThreshold
	r, err := engine.AnalyzeContextErr(context.Background(), &trace.Suite{Sessions: []*trace.Session{s}}, th)
	if err != nil {
		t.Fatal(err)
	}
	return summary{
		Traced: len(s.Episodes), Long: len(s.PerceptibleEpisodes(th)), Short: s.ShortCount,
		GCs: len(s.GCs), Ticks: len(s.Ticks), E2E: s.E2E(), InEps: s.InEpisode(),
		Trigger:          [2]analysis.TriggerShares{r.TriggerAll, r.TriggerLong},
		Location:         [2]analysis.LocationShares{r.LocationAll, r.LocationLong},
		Causes:           [2]analysis.CauseShares{r.CausesAll, r.CausesLong},
		Concurrency:      [2]float64{r.ConcurrencyAll, r.ConcurrencyLong},
		ConcurrencyTicks: [2]int{r.TicksAll, r.TicksLong},
		Sweep:            analysis.ThresholdSweep([]*trace.Session{s}, nil),
	}
}

// releaser folds each episode a release-mode build hands it, the way
// `lagalyzer stats` does, and checks what the hook may see.
type releaser struct {
	t        *testing.T
	ea       *engine.EpisodeAnalyzer
	pop      [2]engine.Population
	durs     []trace.Dur
	maxTicks int
}

func newReleaser(t *testing.T) *releaser {
	return &releaser{t: t, ea: engine.NewEpisodeAnalyzer()}
}

func (r *releaser) hook(s *trace.Session, e *trace.Episode) {
	if len(s.Episodes) != 0 || len(s.GCs) != 0 {
		r.t.Errorf("hook sees %d retained episodes and %d GC brackets", len(s.Episodes), len(s.GCs))
	}
	if e.Index != len(r.durs) {
		r.t.Errorf("episode index %d, want close order %d", e.Index, len(r.durs))
	}
	r.maxTicks = max(r.maxTicks, len(s.Ticks))
	info := r.ea.Analyze(s, e)
	engine.Fold(&r.pop, e, &info, trace.DefaultPerceptibleThreshold)
	r.durs = append(r.durs, e.Dur())
}

func (r *releaser) summary(s *trace.Session, diag *treebuild.Diagnostics) summary {
	sum := summary{Traced: len(r.durs), Short: s.ShortCount, GCs: diag.GCs, Ticks: diag.Ticks, E2E: s.E2E()}
	for _, d := range r.durs {
		sum.InEps += d
		if d >= trace.DefaultPerceptibleThreshold {
			sum.Long++
		}
	}
	for i := range r.pop {
		sum.Trigger[i] = r.pop[i].Trigger
		sum.Location[i] = r.pop[i].Location()
		sum.Causes[i] = r.pop[i].Causes()
		sum.Concurrency[i], sum.ConcurrencyTicks[i] = r.pop[i].Concurrency()
	}
	sweep := analysis.NewSweep(nil)
	for _, d := range r.durs {
		sweep.Add(d)
	}
	sum.Sweep = sweep.Points()
	return sum
}

// encode writes recs in format f (compressed when flate), in 256-record
// blocks for v2 so a session spans many blocks.
func encode(t *testing.T, h lila.Header, recs []*lila.Record, f lila.Format, flate bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w lila.Writer
	var err error
	if f == lila.FormatV2 {
		o := lila.V2WriterOptions{BlockRecords: 256}
		if flate {
			o.Compression = lila.CompressionFlate
		}
		w, err = lila.NewV2WriterOptions(&buf, h, o)
	} else {
		w, err = lila.NewWriter(&buf, f, h)
	}
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
	return buf.Bytes()
}

// checkRelease compares release-mode builds of recs, in text, v2, and
// v2-flate at 1, 2, and 8 block workers, with the batch reference.
func checkRelease(t *testing.T, label string, h lila.Header, recs []*lila.Record) {
	t.Helper()
	full, _, err := treebuild.BuildRecords(h, recs)
	if err != nil {
		t.Fatalf("%s: full build: %v", label, err)
	}
	want := fullSummary(t, full)
	compare := func(enc string, build func(o treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error)) {
		r := newReleaser(t)
		s, diag, err := build(treebuild.Options{Episode: r.hook})
		if err != nil {
			t.Fatalf("%s/%s: release build: %v", label, enc, err)
		}
		if len(s.Episodes) != 0 || len(s.Ticks) != 0 || len(s.GCs) != 0 {
			t.Errorf("%s/%s: release build kept %d episodes, %d ticks, %d GCs",
				label, enc, len(s.Episodes), len(s.Ticks), len(s.GCs))
		}
		if got := r.summary(s, diag); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: release folds\n%+v\nwant\n%+v", label, enc, got, want)
		}
	}
	text := encode(t, h, recs, lila.FormatText, false)
	compare("text", func(o treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error) {
		lr, err := lila.NewReaderOptions(bytes.NewReader(text), lila.ReaderOptions{})
		if err != nil {
			return nil, nil, err
		}
		return treebuild.BuildOptions(lr, o)
	})
	for _, flate := range []bool{false, true} {
		v, err := lila.ParseV2(encode(t, h, recs, lila.FormatV2, flate), lila.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{1, 2, 8} {
			compare(fmt.Sprintf("v2/flate=%v/jobs=%d", flate, jobs), func(o treebuild.Options) (*trace.Session, *treebuild.Diagnostics, error) {
				s, diag, _, err := treebuild.BuildV2(v, jobs, o)
				return s, diag, err
			})
		}
	}
}

// TestReleaseMatchesFullAnalysis pins release mode to the batch path:
// folding EpisodeAnalyzer results as episodes close gives the same
// counts, population shares, and threshold sweep as a full build plus
// one engine run, for every catalog app (sessions 0 and 1, with and
// without materialized short episodes) and for overlapping episodes
// on two event dispatch threads.
func TestReleaseMatchesFullAnalysis(t *testing.T) {
	for _, p := range apps.Catalog() {
		for _, session := range []int{0, 1} {
			for _, short := range []bool{false, true} {
				recs, h, err := sim.Records(sim.Config{Profile: p, SessionID: session, Seed: 9,
					SessionSeconds: 20, MaterializeShort: short})
				if err != nil {
					t.Fatal(err)
				}
				checkRelease(t, fmt.Sprintf("%s/%d/short=%v", p.Name, session, short), h, recs)
			}
		}
	}
	h, recs := treebuild.MultiEDT()
	checkRelease(t, "multi-EDT", h, recs)
}

// TestReleaseRetention pins what release mode keeps: on a long
// GanttProject session no hook call sees more than 1% of the
// session's ticks.
func TestReleaseRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 30-minute session")
	}
	recs, h, err := sim.Records(sim.Config{Profile: apps.GanttProject(), Seed: 42, SessionSeconds: 1800})
	if err != nil {
		t.Fatal(err)
	}
	r := newReleaser(t)
	_, diag, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Episode: r.hook})
	if err != nil {
		t.Fatal(err)
	}
	if r.maxTicks*100 >= diag.Ticks {
		t.Errorf("a hook call saw %d of the session's %d ticks (want under 1%%)", r.maxTicks, diag.Ticks)
	}
	t.Logf("at most %d of %d ticks retained over %d episodes", r.maxTicks, diag.Ticks, len(r.durs))
}

// TestReleaseKeepsChecks feeds the same malformed streams to a full
// and a release-mode build: a strict build must fail in both modes,
// and a lenient one must fail in both or return the same diagnostics
// (with the release build's record count, and its tick and GC counts
// standing in for the full session's lists).
func TestReleaseKeepsChecks(t *testing.T) {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	base := lila.Header{App: "bad", GUIThread: 1, Start: ms(100), SamplePeriod: trace.Ms(10),
		FilterThreshold: trace.DefaultFilterThreshold}
	sample := func(at float64, state trace.ThreadState) *lila.Record {
		return &lila.Record{Type: lila.RecSample, Time: ms(at), Thread: 1, State: state,
			Stack: []trace.Frame{{Class: "a.A", Method: "run"}}}
	}
	episode := func(from, to float64, kind trace.Kind, inner ...*lila.Record) []*lila.Record {
		recs := []*lila.Record{
			{Type: lila.RecCall, Time: ms(from), Thread: 1, Kind: trace.KindDispatch},
			{Type: lila.RecCall, Time: ms(from + 1), Thread: 1, Kind: kind, Class: "a.A", Method: "run"},
		}
		recs = append(recs, inner...)
		return append(recs,
			&lila.Record{Type: lila.RecReturn, Time: ms(to - 1), Thread: 1},
			&lila.Record{Type: lila.RecReturn, Time: ms(to), Thread: 1})
	}
	stream := func(parts ...[]*lila.Record) []*lila.Record {
		recs := []*lila.Record{{Type: lila.RecThread, Thread: 1, Name: "edt"}}
		for _, p := range parts {
			recs = append(recs, p...)
		}
		return recs
	}
	gc := func(from, to float64) []*lila.Record {
		return []*lila.Record{{Type: lila.RecGCStart, Time: ms(from)}, {Type: lila.RecGCEnd, Time: ms(to)}}
	}
	end := func(at float64) []*lila.Record { return []*lila.Record{{Type: lila.RecEnd, Time: ms(at)}} }
	good := episode(200, 260, trace.KindListener, sample(210, trace.StateRunnable))

	cases := map[string][]*lila.Record{
		"intact": stream(good, gc(300, 310), end(400)),
		"before start": stream(episode(10, 60, trace.KindListener, sample(20, trace.StateRunnable)),
			gc(70, 80), good, end(400)),
		"invalid state":   stream(episode(200, 260, trace.KindListener, sample(210, trace.ThreadState(9))), end(400)),
		"invalid kind":    stream(episode(200, 260, trace.Kind(99)), end(400)),
		"truncated tail":  stream(good, gc(300, 310), episode(320, 380, trace.KindPaint)[:3]),
		"open at end":     stream(good, episode(320, 380, trace.KindPaint)[:2], end(400)),
		"return mismatch": stream(good, []*lila.Record{{Type: lila.RecReturn, Time: ms(300), Thread: 1}}, end(400)),
	}
	for name, recs := range cases {
		for _, lenient := range []bool{false, true} {
			label := fmt.Sprintf("%s/lenient=%v", name, lenient)
			fs, fdiag, ferr := treebuild.BuildRecordsOptions(base, recs, treebuild.Options{Lenient: lenient})
			_, rdiag, rerr := treebuild.BuildRecordsOptions(base, recs,
				treebuild.Options{Lenient: lenient, Episode: func(*trace.Session, *trace.Episode) {}})
			if (ferr == nil) != (rerr == nil) {
				t.Errorf("%s: full build error %v, release build error %v", label, ferr, rerr)
				continue
			}
			if ferr != nil {
				if name == "intact" {
					t.Errorf("%s: %v", label, ferr)
				}
				continue
			}
			if !lenient && name != "intact" {
				t.Errorf("%s: strict builds accepted a malformed stream", label)
			}
			want := *fdiag
			want.Records, want.Ticks, want.GCs = len(recs), len(fs.Ticks), len(fs.GCs)
			if !reflect.DeepEqual(*rdiag, want) {
				t.Errorf("%s: release diagnostics %+v, want %+v", label, *rdiag, want)
			}
		}
	}
}

// TestReleaseWatermark pins the release watermark on two EDTs with
// overlapping episodes: it is the earlier of the last record's time and
// the earliest open dispatch start, so EDT-B's episode closing inside
// EDT-A's leaves it at A's start, and both hooks see their shared tick.
func TestReleaseWatermark(t *testing.T) {
	h, recs := treebuild.MultiEDT()
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	var sawTick []bool
	b := treebuild.NewBuilder(h, treebuild.Options{Episode: func(s *trace.Session, e *trace.Episode) {
		sawTick = append(sawTick, len(s.EpisodeTicks(e)) == 1)
	}})
	// want[i] is the watermark after recs[i]: A opens at 0 and holds it
	// until it closes at 200; the end record moves it to 1000.
	want := make([]trace.Time, len(recs))
	want[len(recs)-2], want[len(recs)-1] = ms(200), ms(1000)
	for i, rec := range recs {
		if err := b.Feed(rec); err != nil {
			t.Fatal(err)
		}
		if got := b.Watermark(); got != want[i] {
			t.Errorf("after record %d (%v at %v): watermark %v, want %v", i, rec.Type, rec.Time, got, want[i])
		}
	}
	if _, _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sawTick, []bool{true, true}) {
		t.Errorf("hooks saw the shared tick: %v, want both", sawTick)
	}
}

// TestReleaseBuildsUnderFullBuildBudget: the memory guard charges what
// a build keeps, so a session whose full build trips MaxSessionBytes
// builds in release mode under that same budget, with the same folds
// as an unlimited release build. The idle session samples for ten
// minutes without a single episode, so no release ever compacts it.
func TestReleaseBuildsUnderFullBuildBudget(t *testing.T) {
	gantt, h, err := sim.Records(sim.Config{Profile: apps.GanttProject(), Seed: 17, SessionSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	idle := []*lila.Record{{Type: lila.RecThread, Thread: 1, Name: "edt"}}
	for i := 0; i < 60000; i++ {
		idle = append(idle, &lila.Record{Type: lila.RecSample, Time: trace.Time(i) * trace.Time(trace.Ms(10)),
			Thread: 1, State: trace.StateWaiting, Stack: []trace.Frame{{Class: "java.lang.Object", Method: "wait"}}})
	}
	idle = append(idle, &lila.Record{Type: lila.RecEnd, Time: trace.Time(trace.Ms(600000))})
	limits := lila.Limits{MaxSessionBytes: 1 << 20}
	for name, recs := range map[string][]*lila.Record{"GanttProject": gantt, "idle": idle} {
		if _, _, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Limits: limits}); !errors.Is(err, treebuild.ErrSessionTooLarge) {
			t.Fatalf("%s: full build under %d bytes: %v, want ErrSessionTooLarge", name, limits.MaxSessionBytes, err)
		}
		build := func(l lila.Limits) summary {
			r := newReleaser(t)
			s, diag, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Limits: l, Episode: r.hook})
			if err != nil {
				t.Fatalf("%s: release build under %d bytes: %v", name, l.MaxSessionBytes, err)
			}
			return r.summary(s, diag)
		}
		if got, want := build(limits), build(lila.Limits{}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: budgeted release build\n%+v\nwant\n%+v", name, got, want)
		}
	}
}
