package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
)

// TestShedSessionCap: with a one-session cap, a second concurrent
// stream must shed with 429 + Retry-After while the first is live,
// and be admitted once the first finishes.
func TestShedSessionCap(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{MaxSessions: 1, IdleTimeout: time.Minute})

	// Hold a session open with a body that never ends until we say so.
	pr, pw := io.Pipe()
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/held", "application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- resp
	}()
	pw.Write(encodeSession(t, lila.FormatText, "Jmol", 1, 5)[:64]) // header arrives, stream stays open
	waitFor(t, func() bool { return srv.Sessions() == 1 })

	d := delivery{app: "Jmol", session: "second", body: encodeSession(t, lila.FormatText, "Jmol", 2, 5)}
	resp, _, err := postDelivery(t, hs.Client(), hs.URL, d)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if ok, reasons := srv.Ready(); ok || len(reasons) == 0 || reasons[0] != "session-cap" {
		t.Errorf("Ready() = %v %v, want session-cap refusal", ok, reasons)
	}

	pw.Close() // client finishes; salvage-what-arrived
	<-done
	waitFor(t, func() bool { return srv.Sessions() == 0 })

	if resp, _, err := postDelivery(t, hs.Client(), hs.URL, d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post after release: %v (%v)", err, resp)
	}
}

// TestDuplicateSessionConflict: the same app/session key cannot be
// live twice (409), but the key frees on finish.
func TestDuplicateSessionConflict(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{IdleTimeout: time.Minute})

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/dup", "application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("#"))
	waitFor(t, func() bool { return srv.Sessions() == 1 })

	resp, _, err := postDelivery(t, hs.Client(), hs.URL,
		delivery{app: "Jmol", session: "dup", body: []byte("#\n")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate key got %d, want 409", resp.StatusCode)
	}
	pw.Close()
	<-done
}

// TestPutUploadAccepted: curl -T and most streaming uploaders send
// PUT, not POST; the route accepts both identically.
func TestPutUploadAccepted(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{IdleTimeout: time.Minute})
	body := encodeSession(t, lila.FormatText, "Jmol", 9, 10)

	req, err := http.NewRequest(http.MethodPut, hs.URL+"/ingest/Jmol/put-1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT upload got %d, want 200", resp.StatusCode)
	}
	var sum sessionSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Records == 0 || sum.Error != "" {
		t.Fatalf("PUT upload summary %+v, want parsed records and no error", sum)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions live after PUT finished, want 0", n)
	}
}

// TestDrainRefusesAndFlushes: BeginDrain turns new sessions away with
// 503, evicts live ones with a drained=true partial summary, and the
// partial data they had flushed stays committed.
func TestDrainRefusesAndFlushes(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{WindowDur: goldenWindow, IdleTimeout: time.Minute})

	pr, pw := io.Pipe()
	type answer struct {
		sum       sessionSummary
		status    int
		err       error // from Post
		decodeErr error
	}
	answers := make(chan answer, 1)
	go func() {
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/drainee", "application/octet-stream", pr)
		if err != nil {
			answers <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		a.decodeErr = json.NewDecoder(resp.Body).Decode(&a.sum)
		answers <- a
	}()
	body := encodeSession(t, lila.FormatText, "Jmol", 21, 30)
	pw.Write(body[:len(body)/2])
	// Wait until the handler has actually parsed records, not merely
	// admitted the session: the client's pipe write returns when the
	// transport consumed the bytes, which says nothing about how far
	// the handler's decoder got. Draining before the header parse is
	// legal (nothing arrived worth committing) but not this test.
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, ss := range srv.sessions {
			ss.mu.Lock()
			records := ss.records
			ss.mu.Unlock()
			return records > 0
		}
		return false
	})

	srv.BeginDrain()

	// New sessions are refused while draining.
	resp, _, err := postDelivery(t, hs.Client(), hs.URL,
		delivery{app: "Jmol", session: "late", body: body})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post while draining got %d, want 503", resp.StatusCode)
	}

	// The live session is evicted with reason drain; its summary says
	// drained, and whatever it salvaged was committed.
	a := <-answers
	if a.err != nil || a.decodeErr != nil || a.status != http.StatusOK || !a.sum.Drained {
		t.Errorf("drained session: post error %v, status %d, decode error %v, summary %+v; want status 200 and drained=true",
			a.err, a.status, a.decodeErr, a.sum)
	}
	pw.Close()
	waitFor(t, func() bool { return srv.Sessions() == 0 })
	if tb := srv.Tables(); tb.Apps["Jmol"] == nil || tb.Apps["Jmol"].Sessions != 1 {
		t.Errorf("drained session's partial data not committed: %+v", tb.Apps)
	}
}

// TestBudgetDegradeThenEvict: a session blowing through the per-session
// budget first degrades to stats-only (aggregates keep flowing, trees
// stop), and a budget small enough to stay exceeded evicts it with 429.
func TestBudgetDegradeThenEvict(t *testing.T) {
	// The consumer's base estimate alone (16 KiB) exceeds this budget,
	// so the first police pass degrades and the second evicts.
	srv, hs := newIngestFixture(t, Config{
		WindowDur:     goldenWindow,
		SessionBudget: 8 << 10,
		IdleTimeout:   time.Minute,
	})
	d := delivery{app: "Jmol", session: "hog", body: encodeSession(t, lila.FormatText, "Jmol", 41, 60)}
	resp, sum, err := postDelivery(t, hs.Client(), hs.URL, d)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget session got %d, want 429 (summary %+v)", resp.StatusCode, sum)
	}
	if sum.Evicted != evictBudget {
		t.Errorf("evicted = %q, want %q", sum.Evicted, evictBudget)
	}
	if !sum.Degraded {
		t.Error("session was evicted for budget without degrading first")
	}
	if sum.Records == 0 {
		t.Error("no records consumed before eviction")
	}
	waitFor(t, func() bool { return srv.Sessions() == 0 })
	if srv.MemInUse() != 0 {
		t.Errorf("memory charge leaked: %d", srv.MemInUse())
	}
	// What was flushed before eviction is committed data.
	if tb := srv.Tables(); tb.Apps["Jmol"] == nil {
		t.Error("evicted session contributed nothing")
	}
}

// TestStatsOnlyDegradationKeepsAggregates: a consumer degraded to
// stats-only mid-stream still produces windowed tallies identical to
// the batch reference in everything except pattern classification —
// post-degradation episodes count as Treeless instead of entering the
// pattern map, but durations, triggers, causes, histograms, and tick
// attributions keep flowing untouched.
func TestStatsOnlyDegradationKeepsAggregates(t *testing.T) {
	body := encodeSession(t, lila.FormatText, "Jmol", 51, 25)
	r, err := newSalvageReader(body)
	if err != nil {
		t.Fatal(err)
	}
	cons := NewConsumer("Jmol", r.Header(), ConsumerConfig{WindowDur: goldenWindow})
	got := NewTables()
	for n := 0; ; n++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cons.Add(rec)
		if n == 500 {
			cons.Degrade()
		}
		for _, fe := range cons.CompletedWindows() {
			got.window(WindowKey{App: "Jmol", Window: fe.Window}).Merge(fe.Agg)
		}
	}
	entries, at := cons.Finish()
	for _, fe := range entries {
		got.window(WindowKey{App: "Jmol", Window: fe.Window}).Merge(fe.Agg)
	}
	got.app("Jmol").merge(&at)
	if !cons.Degraded() {
		t.Fatal("consumer not degraded")
	}

	want := batchReference(t, []delivery{{app: "Jmol", session: "deg", body: body}}, goldenWindow)
	// Patterns are the sacrifice of stats-only mode; every other tally
	// must still match the batch reference exactly.
	var gotTreeless int
	for _, k := range want.SortedWindows() {
		wa, ga := want.Windows[k], got.Windows[k]
		if ga == nil {
			t.Fatalf("window %+v missing", k)
		}
		gotTreeless += ga.Treeless
		wc, gc := *wa, *ga
		wc.Treeless, gc.Treeless = 0, 0
		if !equalAggregates(&wc, &gc) {
			t.Errorf("window %+v tallies diverged:\n  degraded %+v\n  batch    %+v", k, gc, wc)
		}
	}
	if gotTreeless == 0 {
		t.Error("degraded consumer recorded no treeless episodes")
	}
	if got.Apps["Jmol"] == nil || want.Apps["Jmol"] == nil || *got.Apps["Jmol"] != *want.Apps["Jmol"] {
		t.Errorf("app tally: degraded %+v, batch %+v", got.Apps["Jmol"], want.Apps["Jmol"])
	}
}

// TestTablesCloneIsDeep: /ingest/stats reads a clone of the server's
// tables, so folding more episodes into a clone — into patterns it
// shares with the original, too — leaves the original as it was.
func TestTablesCloneIsDeep(t *testing.T) {
	sessions := buildSessions(t, []delivery{{app: "Jmol", body: encodeSession(t, lila.FormatText, "Jmol", 31, 20)}})
	orig, want := NewTables(), NewTables()
	FoldSessions(orig, "Jmol", sessions, goldenWindow, 0)
	FoldSessions(want, "Jmol", sessions, goldenWindow, 0)
	clone := orig.Clone()
	if !reflect.DeepEqual(clone, orig) {
		t.Fatal("a clone differs from its original")
	}
	FoldSessions(clone, "Jmol", sessions, goldenWindow, 0)
	if reflect.DeepEqual(clone, orig) {
		t.Fatal("folding into the clone changed nothing")
	}
	if !reflect.DeepEqual(orig, want) {
		t.Error("folding into a clone changed the original")
	}
}

func equalAggregates(a, b *Aggregate) bool {
	a2, b2 := *a, *b
	a2.Patterns, b2.Patterns = nil, nil
	return reflect.DeepEqual(a2, b2)
}

// TestIdleSessionReaped: a client that parks a connection without
// sending is evicted by the reaper and answered 408.
func TestIdleSessionReaped(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{IdleTimeout: 200 * time.Millisecond})

	pr, pw := io.Pipe()
	status := make(chan int, 1)
	go func() {
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/parked", "application/octet-stream", pr)
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	pw.Write([]byte("#")) // open the stream, then go silent

	select {
	case code := <-status:
		if code != http.StatusRequestTimeout {
			t.Fatalf("parked session got %d, want 408", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle session never evicted")
	}
	pw.Close()
	waitFor(t, func() bool { return srv.Sessions() == 0 })
}

// TestStatsEndpointMidSession: committed windows are queryable while a
// session is still live, and the live roster lists it.
func TestStatsEndpointMidSession(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{WindowDur: goldenWindow, IdleTimeout: time.Minute})

	body := encodeSession(t, lila.FormatText, "Jmol", 61, 40)
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := hs.Client().Post(hs.URL+"/ingest/Jmol/live", "application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Feed most of the session so whole windows complete and commit
	// (the handler flushes every 256 records), keep the stream open.
	pw.Write(body[:len(body)*3/4])
	waitFor(t, func() bool {
		st := srv.Stats()
		return len(st.Windows) > 0 && len(st.Sessions) == 1
	})

	resp, err := hs.Client().Get(hs.URL + "/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Session != "Jmol/live" {
		t.Errorf("live roster: %+v", st.Sessions)
	}
	if st.Sessions[0].Records == 0 || st.Sessions[0].Bytes == 0 {
		t.Errorf("live session shows no progress: %+v", st.Sessions[0])
	}
	if len(st.Windows) == 0 {
		t.Error("no committed windows visible mid-session")
	}
	for _, w := range st.Windows {
		if w.App != "Jmol" || w.Episodes == 0 {
			t.Errorf("window %+v is empty", w.WindowKey)
		}
	}

	pw.Close()
	<-done
	waitFor(t, func() bool { return srv.Sessions() == 0 })
}

// TestGarbageStreamSalvagedNotErrored: a stream of pure garbage is not
// an error — the server salvages nothing, answers 200 with a salvage
// report, and stays clean for the next client.
func TestGarbageStreamSalvagedNotErrored(t *testing.T) {
	srv, hs := newIngestFixture(t, Config{IdleTimeout: time.Minute})
	garbage := []byte("#\n" + strings.Repeat("!!! not a record !!!\n", 100))
	resp, sum, err := postDelivery(t, hs.Client(), hs.URL,
		delivery{app: "Jmol", session: "junk", body: garbage})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage stream got %d, want 200 (salvaged)", resp.StatusCode)
	}
	if sum.Episodes != 0 {
		t.Errorf("garbage produced %d episodes", sum.Episodes)
	}
	waitFor(t, func() bool { return srv.Sessions() == 0 })
}

// ingestCounters is the exported metric schema of the ingest surface;
// pinned in both exposition formats so dashboards keyed on the names
// cannot silently break.
var ingestCounters = []string{
	"ingest_sessions_total",
	"ingest_records_total",
	"ingest_bytes_total",
	"ingest_shed_total",
	"ingest_sessions_degraded_total",
	"ingest_windows_committed_total",
	"ingest_sessions_evicted_idle_total",
	"ingest_sessions_evicted_budget_total",
	"ingest_sessions_evicted_deadline_total",
	"ingest_sessions_evicted_drain_total",
}

func TestIngestMetricsSchema(t *testing.T) {
	snap := obs.Default().Snapshot()
	text := snap.Format()
	prom := obs.Default().FormatProm()
	for _, name := range ingestCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot has no counter %s", name)
		}
		if !strings.Contains(text, "counter "+name+" ") {
			t.Errorf("text snapshot omits %s:\n%s", name, text)
		}
		if !strings.Contains(prom, "# TYPE "+name+" counter") {
			t.Errorf("prometheus exposition omits the TYPE line for %s", name)
		}
		if !strings.Contains(prom, "\n"+name+" ") {
			t.Errorf("prometheus exposition has no sample for %s", name)
		}
	}
	const gauge = "ingest_sessions_active"
	if _, ok := snap.Gauges[gauge]; !ok {
		t.Errorf("snapshot has no gauge %s", gauge)
	}
	if !strings.Contains(prom, "# TYPE "+gauge+" gauge") {
		t.Errorf("prometheus exposition omits the TYPE line for %s", gauge)
	}
}

// TestIngestMetricsCount: the core counters move with the events they
// name.
func TestIngestMetricsCount(t *testing.T) {
	before := obs.Default().Snapshot().Counters
	_, hs := newIngestFixture(t, Config{WindowDur: goldenWindow})
	d := delivery{app: "Jmol", session: "m1", body: encodeSession(t, lila.FormatText, "Jmol", 77, 25)}
	if resp, _, err := postDelivery(t, hs.Client(), hs.URL, d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %v (%v)", err, resp)
	}
	after := obs.Default().Snapshot().Counters
	for _, name := range []string{
		"ingest_sessions_total", "ingest_records_total",
		"ingest_bytes_total", "ingest_windows_committed_total",
	} {
		if after[name] <= before[name] {
			t.Errorf("%s did not move (%d -> %d)", name, before[name], after[name])
		}
	}
}

// TestReadyReasons covers the Server-side readiness signal feeding
// /readyz.
func TestReadyReasons(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if ok, reasons := srv.Ready(); !ok || len(reasons) != 0 {
		t.Fatalf("fresh server not ready: %v", reasons)
	}
	srv.BeginDrain()
	ok, reasons := srv.Ready()
	if ok || len(reasons) != 1 || reasons[0] != "draining" {
		t.Fatalf("draining server: ok=%v reasons=%v", ok, reasons)
	}
}

// TestConsumerWindowPartition: windows flushed mid-stream plus the
// final drain partition the episodes — nothing lost, nothing folded
// twice. Pure consumer-level check, no HTTP.
func TestConsumerWindowPartition(t *testing.T) {
	body := encodeSession(t, lila.FormatText, "CrosswordSage", 13, 30)
	r, err := newSalvageReader(body)
	if err != nil {
		t.Fatal(err)
	}
	cons := NewConsumer("CrosswordSage", r.Header(), ConsumerConfig{WindowDur: goldenWindow})
	total := NewTables()
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cons.Add(rec)
		for _, fe := range cons.CompletedWindows() {
			total.window(WindowKey{App: "CrosswordSage", Window: fe.Window}).Merge(fe.Agg)
		}
	}
	entries, at := cons.Finish()
	for _, fe := range entries {
		total.window(WindowKey{App: "CrosswordSage", Window: fe.Window}).Merge(fe.Agg)
	}
	total.app("CrosswordSage").merge(&at)

	want := batchReference(t, []delivery{{app: "CrosswordSage", session: "1", body: body}}, goldenWindow)
	compareTables(t, total, want)
}

func newSalvageReader(body []byte) (lila.Reader, error) {
	return lila.NewReaderOptions(bytes.NewReader(body), lila.ReaderOptions{Salvage: true})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never reached")
}
