package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
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
			gc, wc := ga.Clone(), wa.Clone()
			gc.Patterns, wc.Patterns = nil, nil
			if !reflect.DeepEqual(gc, wc) {
				t.Errorf("window %+v tallies:\n  streamed %+v\n  batch    %+v", k, gc, wc)
			}
			for canon, pt := range wa.Patterns {
				if g := ga.Patterns[canon]; g == nil || *g != *pt {
					t.Errorf("window %+v pattern %q: streamed %+v, batch %+v", k, canon, ga.Patterns[canon], pt)
				}
			}
			for canon := range ga.Patterns {
				if wa.Patterns[canon] == nil {
					t.Errorf("window %+v pattern %q: streamed has it, batch does not", k, canon)
				}
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
