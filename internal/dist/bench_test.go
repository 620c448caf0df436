package dist

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"lagalyzer/internal/report"
)

// BenchmarkDistStudy runs the golden tests' study (3 apps × 2 sessions
// × 20 s) over two in-process workers per iteration: submit, simulate
// into the frame, fetch, fold. B/op counts the coordinator and the
// workers together, since they share the process.
func BenchmarkDistStudy(b *testing.B) {
	b.ReportAllocs()
	c, err := New(Options{Workers: startWorkers(b, 2)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := studyConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunStudy(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistTraces runs the trace tests' six-file corpus over two
// in-process workers per iteration: each worker folds its path range
// and ships its closed folds, one per app, and the coordinator merges
// and analyzes them. B/op counts the coordinator and the workers
// together; state-B/op is the shard-state bytes the workers ship.
func BenchmarkDistTraces(b *testing.B) {
	b.ReportAllocs()
	var shipped atomic.Int64
	c, err := New(Options{Workers: startWorkersWith(b, 2, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/state") {
				w = countingWriter{w, &shipped}
			}
			h.ServeHTTP(w, r)
		})
	})})
	if err != nil {
		b.Fatal(err)
	}
	dir := tracesCorpus(b)
	o := report.LoadOptions{Salvage: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunTraces(context.Background(), dir, o, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(shipped.Load())/float64(b.N), "state-B/op")
}

// countingWriter adds the body bytes written through it to n.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}
