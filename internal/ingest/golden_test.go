package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/analysis"
	"lagalyzer/internal/apps"
	"lagalyzer/internal/engine"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/stream"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// delivery is one session's upload: the URL identity plus the exact
// bytes put on the wire.
type delivery struct {
	app, session string
	body         []byte
}

// encodeSession simulates one app session and serializes it in format:
// text is the natural live wire format, whose salvage reader drops
// damage line by line; v2 is the file format, which salvage drops
// block by block.
func encodeSession(t testing.TB, format lila.Format, app string, seed uint64, seconds float64) []byte {
	t.Helper()
	profile, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: seed, SessionSeconds: seconds})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w, err := lila.NewWriter(&sb, format, h)
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
	return []byte(sb.String())
}

// newIngestFixture builds an ingest server plus an httptest front end
// mounting the real route patterns (PathValue needs them).
func newIngestFixture(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(mountIngest(srv))
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

// batchReference rebuilds the golden tables from delivered bytes using
// the batch pipeline: salvage decode, lenient treebuild, FoldSessions.
// The resolution rules (header app wins over URL app, an unreadable
// header contributes nothing) mirror HandleIngest exactly.
func batchReference(t *testing.T, deliveries []delivery, windowDur trace.Dur) *Tables {
	t.Helper()
	want := NewTables()
	for _, d := range deliveries {
		r, err := lila.NewReaderOptions(bytes.NewReader(d.body), lila.ReaderOptions{Salvage: true})
		if err != nil {
			continue // not even a sniffable header: the server commits nothing
		}
		app := r.Header().App
		if app == "" {
			app = d.app
		}
		session, _, err := treebuild.BuildOptions(r, treebuild.Options{Lenient: true})
		if err != nil {
			t.Fatalf("batch treebuild for %s/%s: %v", d.app, d.session, err)
		}
		FoldSessions(want, app, []*trace.Session{session}, windowDur, 0)
	}
	return want
}

// compareTables asserts the streamed tables equal the batch reference,
// with a per-key diff on mismatch.
func compareTables(t *testing.T, got, want *Tables) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for name, at := range want.Apps {
		if g := got.Apps[name]; g == nil || *g != *at {
			t.Errorf("app %s: streamed %+v, batch %+v", name, got.Apps[name], at)
		}
	}
	for name := range got.Apps {
		if want.Apps[name] == nil {
			t.Errorf("app %s: streamed has it, batch does not", name)
		}
	}
	for _, k := range want.SortedWindows() {
		wa := want.Windows[k]
		ga := got.Windows[k]
		if ga == nil {
			t.Errorf("window %+v: missing from streamed tables (batch %+v)", k, wa)
			continue
		}
		if !reflect.DeepEqual(ga, wa) {
			gc, wc := *ga, *wa
			gc.Patterns, wc.Patterns = nil, nil
			if !reflect.DeepEqual(gc, wc) {
				t.Errorf("window %+v tallies:\n  streamed %+v\n  batch    %+v", k, gc, wc)
			}
			if g, w := ga.Patterns.Unstructured(), wa.Patterns.Unstructured(); g != w {
				t.Errorf("window %+v unstructured: streamed %d, batch %d", k, g, w)
			}
			if g, w := ga.Patterns.Patterns(), wa.Patterns.Patterns(); !reflect.DeepEqual(g, w) {
				t.Errorf("window %+v patterns: streamed %d, batch %d, or their tallies differ", k, len(g), len(w))
			}
		}
	}
	for _, k := range got.SortedWindows() {
		if want.Windows[k] == nil {
			t.Errorf("window %+v: streamed has it, batch does not (%+v)", k, got.Windows[k])
		}
	}
}

func postDelivery(t *testing.T, client *http.Client, base string, d delivery) (*http.Response, sessionSummary, error) {
	t.Helper()
	resp, err := client.Post(
		fmt.Sprintf("%s/ingest/%s/%s", base, d.app, d.session),
		"application/octet-stream", bytes.NewReader(d.body))
	if err != nil {
		return nil, sessionSummary{}, err
	}
	defer resp.Body.Close()
	var sum sessionSummary
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if derr := json.NewDecoder(resp.Body).Decode(&sum); derr != nil {
			t.Fatalf("summary decode for %s/%s: %v", d.app, d.session, derr)
		}
	} else {
		// Admission refusals (shed, draining, duplicate) are plain-text
		// http.Error responses with no summary.
		io.Copy(io.Discard, resp.Body)
	}
	return resp, sum, nil
}

const goldenWindow = 5 * trace.Second

// TestGoldenStreamedMatchesBatch is the tentpole equivalence test on
// undamaged streams: every session streamed through the HTTP surface
// must yield byte-for-byte the same aggregate tables as the batch
// pipeline (salvage read, treebuild, FoldSessions) over the same
// bytes — per-window tallies, pattern maps, and app tallies included.
// The last session arrives v2-encoded.
func TestGoldenStreamedMatchesBatch(t *testing.T) {
	deliveries := []delivery{
		{app: "CrosswordSage", session: "1"},
		{app: "Jmol", session: "1"},
		{app: "Arabeske", session: "1"},
		{app: "Jmol", session: "2"},
		{app: "CrosswordSage", session: "v2"},
	}
	for i := range deliveries {
		format := lila.FormatText
		if deliveries[i].session == "v2" {
			format = lila.FormatV2
		}
		deliveries[i].body = encodeSession(t, format, deliveries[i].app, uint64(31+i), 30)
	}

	srv, hs := newIngestFixture(t, Config{WindowDur: goldenWindow})
	for _, d := range deliveries {
		resp, sum, err := postDelivery(t, hs.Client(), hs.URL, d)
		if err != nil {
			t.Fatalf("post %s/%s: %v", d.app, d.session, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s/%s: status %d", d.app, d.session, resp.StatusCode)
		}
		if sum.Episodes == 0 || sum.Records == 0 {
			t.Fatalf("post %s/%s: empty summary %+v", d.app, d.session, sum)
		}
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions still live after all streams closed", n)
	}

	compareTables(t, srv.Tables(), batchReference(t, deliveries, goldenWindow))
}

// TestGoldenStreamedMatchesBatchUnderFaults re-runs the equivalence
// with every upload damaged by the fault injector in adversarial chunk
// shapes: mid-stream stalls, clean truncation at half the body, and
// seed-derived bit flips. The batch reference is rebuilt from the
// byte-exact damaged bodies the transport recorded, so the contract
// under test is: whatever bytes arrived, streamed == batch over those
// same salvaged bytes. Every session is sent twice, as text and as v2,
// so each fault hits both encodings.
func TestGoldenStreamedMatchesBatchUnderFaults(t *testing.T) {
	faults := []faultinject.Fault{
		faultinject.FaultNone, faultinject.FaultStall,
		faultinject.FaultTruncate, faultinject.FaultCorrupt,
		faultinject.FaultCorrupt, faultinject.FaultTruncate,
	}
	var deliveries []delivery
	for _, format := range []lila.Format{lila.FormatText, lila.FormatV2} {
		for i, app := range []string{"CrosswordSage", "Jmol", "Arabeske", "FindBugs", "Jmol", "CrosswordSage"} {
			deliveries = append(deliveries, delivery{
				app:     app,
				session: fmt.Sprintf("f%d-%v", i, format),
				body:    encodeSession(t, format, app, uint64(71+i), 25),
			})
		}
	}

	srv, hs := newIngestFixture(t, Config{
		WindowDur:   goldenWindow,
		ReadTimeout: 10 * time.Second, // stalls pause well under this
		IdleTimeout: time.Minute,
	})
	ft := &faultinject.FlakyTransport{
		RequestPlan: func(call int, req *http.Request) faultinject.Fault {
			return faults[(call-1)%len(faults)]
		},
		RecordBodies: true,
		Stall:        30 * time.Millisecond,
		Seed:         1234,
	}
	client := &http.Client{Transport: ft}

	for _, d := range deliveries {
		resp, sum, err := postDelivery(t, client, hs.URL, d)
		if err != nil {
			t.Fatalf("post %s/%s: %v", d.app, d.session, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s/%s: status %d (summary %+v)", d.app, d.session, resp.StatusCode, sum)
		}
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions still live after all streams closed", n)
	}

	// Rebuild the reference from what was actually delivered.
	sent := ft.SentBodies()
	if len(sent) != len(deliveries) {
		t.Fatalf("transport recorded %d bodies, want %d", len(sent), len(deliveries))
	}
	var asArrived []delivery
	for i, sb := range sent {
		if !sb.Reliable {
			t.Fatalf("body %d (%s) not byte-reliable; the golden plan must only use none/stall/truncate/corrupt", i, sb.Fault)
		}
		parts := strings.Split(strings.TrimPrefix(sb.Path, "/ingest/"), "/")
		if len(parts) != 2 {
			t.Fatalf("unexpected recorded path %q", sb.Path)
		}
		asArrived = append(asArrived, delivery{app: parts[0], session: parts[1], body: sb.Body})
	}
	if ft.Injected() == 0 {
		t.Fatal("fault injector injected nothing")
	}

	compareTables(t, srv.Tables(), batchReference(t, asArrived, goldenWindow))
}

// TestGoldenAdversarialChunking streams one session byte-by-byte (the
// most hostile chunking possible) and in one giant write, in text and
// in v2, pinning that chunk boundaries cannot change the aggregates.
func TestGoldenAdversarialChunking(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{WindowDur: goldenWindow, IdleTimeout: time.Minute})
	var sent []delivery
	for _, format := range []lila.Format{lila.FormatText, lila.FormatV2} {
		body := encodeSession(t, format, "Jmol", 5, 20)
		drip := delivery{app: "Jmol", session: "drip-" + format.String(), body: body}
		bulk := delivery{app: "Jmol", session: "bulk-" + format.String(), body: body}

		// One-byte reads via an io.Reader that refuses to batch.
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/"+drip.session, "application/octet-stream",
			io.NopCloser(iotest(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drip-fed %v stream: status %d", format, resp.StatusCode)
		}

		if _, _, err := postDelivery(t, hs.Client(), hs.URL, bulk); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, drip, bulk)
	}
	compareTables(t, srv.Tables(), batchReference(t, sent, goldenWindow))
}

// iotest returns a reader that yields one byte per Read call.
func iotest(data []byte) io.Reader { return &oneByteReader{data: data} }

type oneByteReader struct {
	data []byte
	off  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}

// buildSessions rebuilds each delivery as the batch reference does:
// salvage decode, lenient treebuild.
func buildSessions(t *testing.T, deliveries []delivery) []*trace.Session {
	t.Helper()
	var out []*trace.Session
	for _, d := range deliveries {
		r, err := newSalvageReader(d.body)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := treebuild.BuildOptions(r, treebuild.Options{Lenient: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestGoldenMergeOrderIndependent: window folds merge in any order. A
// multi-app corpus folded one session at a time in a shuffled order,
// its windows and app tallies then merged in a shuffled order, equals
// the in-order fold.
func TestGoldenMergeOrderIndependent(t *testing.T) {
	var deliveries []delivery
	for i, app := range []string{"Jmol", "CrosswordSage", "Arabeske", "Jmol", "CrosswordSage"} {
		deliveries = append(deliveries, delivery{app: app, body: encodeSession(t, lila.FormatText, app, uint64(41+i), 20)})
	}
	sessions := buildSessions(t, deliveries)
	want := NewTables()
	for i, s := range sessions {
		FoldSessions(want, deliveries[i].app, []*trace.Session{s}, goldenWindow, 0)
	}

	rng := rand.New(rand.NewPCG(24, 7))
	var entries []journalEntry
	for _, i := range rng.Perm(len(sessions)) {
		one := NewTables()
		FoldSessions(one, deliveries[i].app, sessions[i:i+1], goldenWindow, 0)
		for _, k := range one.SortedWindows() {
			entries = append(entries, journalEntry{Key: k, Agg: one.Windows[k]})
		}
		entries = append(entries, journalEntry{AppName: deliveries[i].app, App: one.Apps[deliveries[i].app]})
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	got := NewTables()
	for i := range entries {
		foldEntry(got, &entries[i])
	}
	if len(want.Windows) < 8 {
		t.Fatalf("corpus folds into %d windows; too few to shuffle", len(want.Windows))
	}
	if !reflect.DeepEqual(got, want) {
		compareTables(t, got, want)
		t.Fatal("shuffled fold differs from the in-order fold")
	}
}

// TestGoldenWindowsMatchStreamPopulations: one session's windows,
// merged, hold exactly the population pair the streaming analyzer
// folds over the same records.
func TestGoldenWindowsMatchStreamPopulations(t *testing.T) {
	profile, err := apps.ByName("Jmol")
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 21, SessionSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stream.AnalyzeRecords(h, recs, 0)
	if err != nil {
		t.Fatal(err)
	}

	cons := NewConsumer("Jmol", h, ConsumerConfig{WindowDur: goldenWindow})
	var merged Aggregate
	windows := 0
	for _, rec := range recs {
		if err := cons.Add(rec); err != nil {
			t.Fatal(err)
		}
		for _, fe := range cons.CompletedWindows() {
			merged.Merge(fe.Agg)
			windows++
		}
	}
	entries, _ := cons.Finish()
	for _, fe := range entries {
		merged.Merge(fe.Agg)
		windows++
	}
	if windows < 2 {
		t.Fatalf("session folded into %d windows", windows)
	}
	if merged.Pop[0] != st.All || merged.Pop[1] != st.Long {
		t.Errorf("merged windows:\n  all  %+v\n  long %+v\nstream:\n  all  %+v\n  long %+v",
			merged.Pop[0], merged.Pop[1], st.All, st.Long)
	}
	if cons.Episodes() != st.Episodes || st.Episodes == 0 {
		t.Errorf("consumer analyzed %d episodes, stream %d", cons.Episodes(), st.Episodes)
	}
}

// servedWindow is one /ingest/stats window: every key the endpoint
// serves, with the meaning each value has always had.
type servedWindow struct {
	App          string                    `json:"app"`
	Window       int64                     `json:"window"`
	StartSec     float64                   `json:"start_sec"`
	Episodes     int                       `json:"episodes"`
	Perceptible  int                       `json:"perceptible"`
	Unstructured int                       `json:"unstructured,omitempty"`
	Treeless     int                       `json:"treeless,omitempty"`
	Triggers     [analysis.NumTriggers]int `json:"triggers"`
	TriggersLong [analysis.NumTriggers]int `json:"triggers_long"`
	EpisodeTime  trace.Dur                 `json:"episode_time_ns"`
	GCTime       trace.Dur                 `json:"gc_time_ns"`
	NativeTime   trace.Dur                 `json:"native_time_ns"`
	States       [4]int                    `json:"states"`
	Samples      int                       `json:"samples"`
	AppSamples   int                       `json:"app_samples"`
	LibSamples   int                       `json:"lib_samples"`
	Runnable     int                       `json:"runnable"`
	Ticks        int                       `json:"ticks"`
	LagHist      [NumLagBuckets]int        `json:"lag_hist"`
	LagTotal     trace.Dur                 `json:"lag_total_ns"`
	LagMax       trace.Dur                 `json:"lag_max_ns"`
	PatternCount int                       `json:"pattern_count"`
	TopPatterns  []patternDigest           `json:"top_patterns,omitempty"`
}

// add tallies one analyzed episode, field by field.
func (w *servedWindow) add(e *trace.Episode, info *engine.EpisodeInfo, threshold trace.Dur) {
	d := e.Dur()
	w.Episodes++
	w.Triggers[info.Trigger]++
	if d >= threshold {
		w.Perceptible++
		w.TriggersLong[info.Trigger]++
	}
	w.EpisodeTime += d
	w.GCTime += info.GC
	w.NativeTime += info.Native
	for i, n := range info.Ticks.States {
		w.States[i] += n
	}
	w.Samples += info.Ticks.Samples
	w.AppSamples += info.Ticks.App
	w.LibSamples += info.Ticks.Lib
	w.Runnable += info.Ticks.Runnable
	w.Ticks += info.Ticks.Ticks
	w.LagHist[lagBucket(d)]++
	w.LagTotal += d
	w.LagMax = max(w.LagMax, d)
	if !info.Structured {
		w.Unstructured++
	}
}

// TestGoldenStatsWindowsMatchBatch pins GET /ingest/stats: each
// window serves exactly servedWindow's keys (an omitempty key only
// when nonzero), and each value equals a field-by-field tally of the
// engine's analysis of the batch-built episodes in that window; the
// pattern digest equals the batch reference's.
func TestGoldenStatsWindowsMatchBatch(t *testing.T) {
	deliveries := []delivery{{app: "Jmol", session: "s1"}, {app: "CrosswordSage", session: "s1"}, {app: "Jmol", session: "s2"}}
	for i := range deliveries {
		deliveries[i].body = encodeSession(t, lila.FormatText, deliveries[i].app, uint64(61+i), 25)
	}
	_, hs := newIngestFixture(t, Config{WindowDur: goldenWindow})
	for _, d := range deliveries {
		if resp, _, err := postDelivery(t, hs.Client(), hs.URL, d); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s/%s: %v (%v)", d.app, d.session, err, resp)
		}
	}
	resp, err := hs.Client().Get(hs.URL + "/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		Windows []map[string]json.RawMessage `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}

	ref := batchReference(t, deliveries, goldenWindow)
	want := make(map[WindowKey]*servedWindow)
	ea := engine.NewEpisodeAnalyzer()
	for i, s := range buildSessions(t, deliveries) {
		for _, e := range s.Episodes {
			k := WindowKey{App: deliveries[i].app, Window: int64(e.Start()) / int64(goldenWindow)}
			if want[k] == nil {
				want[k] = &servedWindow{App: k.App, Window: k.Window,
					StartSec:     (time.Duration(k.Window) * time.Duration(goldenWindow)).Seconds(),
					PatternCount: len(ref.Windows[k].Patterns.Patterns()),
					TopPatterns:  topPatterns(ref.Windows[k].Patterns.Patterns())}
			}
			info := ea.Analyze(s, e)
			want[k].add(e, &info, trace.DefaultPerceptibleThreshold)
		}
	}
	if len(served.Windows) != len(want) || len(want) < 8 {
		t.Fatalf("served %d windows, batch folds %d", len(served.Windows), len(want))
	}
	for _, sw := range served.Windows {
		var k WindowKey
		if err := json.Unmarshal(sw["app"], &k.App); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(sw["window"], &k.Window); err != nil {
			t.Fatal(err)
		}
		if want[k] == nil {
			t.Fatalf("served window %+v is not in the batch fold", k)
		}
		wantJSON, err := json.Marshal(want[k])
		if err != nil {
			t.Fatal(err)
		}
		var wantKeys map[string]json.RawMessage
		if err := json.Unmarshal(wantJSON, &wantKeys); err != nil {
			t.Fatal(err)
		}
		for key, v := range wantKeys {
			if got, ok := sw[key]; !ok || !jsonEqual(t, got, v) {
				t.Errorf("window %+v key %q: served %s, want %s", k, key, got, v)
			}
		}
		for key := range sw {
			if _, ok := wantKeys[key]; !ok {
				t.Errorf("window %+v serves key %q, which it never did", k, key)
			}
		}
	}
}

func jsonEqual(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var av, bv any
	if err := json.Unmarshal(a, &av); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(av, bv)
}
