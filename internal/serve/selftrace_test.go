package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/report"
	"lagalyzer/internal/treebuild"
)

// spanRunner records a small span tree on the job context, the way the
// real study runner does, so the self-trace has intervals to place.
func spanRunner(ctx context.Context, spec JobSpec) (*report.StudyResult, error) {
	ctx, end := obs.Span(ctx, "study")
	_, endSim := obs.Span(ctx, "simulate")
	time.Sleep(time.Millisecond)
	endSim()
	_, endEng := obs.Span(ctx, "engine")
	time.Sleep(time.Millisecond)
	endEng()
	end()
	return &report.StudyResult{Health: &report.StudyHealth{}}, nil
}

func TestSelfProfileCapturedAndServed(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{
		Workers:     1,
		Runner:      spanRunner,
		SelfProfile: true,
		StateDir:    dir,
	})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)

	data, ok := s.SelfTrace(job.ID)
	if !ok || len(data) == 0 {
		t.Fatal("done job has no self-trace despite SelfProfile")
	}
	// The bytes must be a loadable LiLa v2 session with the job's spans
	// as episodes — the whole point is feeding it back to the analyzer.
	lr, err := lila.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("self-trace does not decode: %v", err)
	}
	sess, _, err := treebuild.BuildOptions(lr, treebuild.Options{})
	if err != nil {
		t.Fatalf("self-trace does not decode: %v", err)
	}
	if sess.App != "lagd-study" {
		t.Errorf("App = %q, want lagd-study", sess.App)
	}
	if len(sess.Episodes) == 0 {
		t.Error("self-trace has no episodes")
	}

	// Persisted beside the checkpoint state for post-mortem analysis.
	onDisk, err := os.ReadFile(filepath.Join(dir, "selftrace", job.ID+".lila"))
	if err != nil {
		t.Fatalf("persisted self-trace: %v", err)
	}
	if !bytes.Equal(onDisk, data) {
		t.Error("persisted self-trace differs from the served bytes")
	}

	// And over HTTP.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/selftrace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET selftrace = %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, data) {
		t.Error("HTTP self-trace differs from SelfTrace()")
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type = %q", got)
	}
}

func TestSelfTraceAbsentWithoutFlag(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: spanRunner})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	if _, ok := s.SelfTrace(job.ID); ok {
		t.Error("self-trace present without SelfProfile")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/selftrace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("GET selftrace without flag = %d, want 409", resp.StatusCode)
	}
}

func TestMetricsPromNegotiation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: okRunner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path, accept string) (int, string, string) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	// Default stays the obs text snapshot.
	code, ct, body := get("/metrics", "")
	if code != 200 || strings.Contains(body, "# TYPE") {
		t.Errorf("default /metrics = %d, prom-formatted? body:\n%.200s", code, body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default Content-Type = %q", ct)
	}

	// ?format=prom switches to the exposition format.
	code, ct, body = get("/metrics?format=prom", "")
	if code != 200 || !strings.Contains(body, "# TYPE") {
		t.Errorf("prom /metrics = %d, body:\n%.200s", code, body)
	}
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("prom Content-Type = %q", ct)
	}

	// A Prometheus scraper's Accept header selects prom too.
	code, _, body = get("/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if code != 200 || !strings.Contains(body, "# TYPE") {
		t.Errorf("Accept-negotiated /metrics = %d, body:\n%.200s", code, body)
	}

	// Unknown formats are rejected.
	if code, _, _ = get("/metrics?format=xml", ""); code != http.StatusBadRequest {
		t.Errorf("format=xml = %d, want 400", code)
	}
}

func TestStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := newTestServer(t, Config{Workers: 1, Runner: okRunner, Logger: logger})
	job, err := s.Submit(JobSpec{Kind: "study"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logs := buf.String()
	for _, want := range []string{
		`"msg":"job accepted"`,
		`"msg":"job running"`,
		`"msg":"job finished"`,
		`"job":"` + job.ID + `"`,
		`"state":"done"`,
		`"msg":"http"`,
		`"path":"/healthz"`,
		`"status":200`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %s in:\n%s", want, logs)
		}
	}
}
