package dist

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/faultinject"
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

// BenchmarkDistFaults prices each resilience mechanism: a study over
// three workers, one of which stalls every request past the attempt
// deadline. The first four variants run the BenchmarkDistStudy study
// with all mechanisms on and with each one off. The catalog variants
// price ejection at a study's shard count: the 14 apps, one 2 s
// session each, with hedging off (lagreport hedges only under
// -hedge-after), the stalled worker home to 4 of the 14 shards. They
// run the apps one shard at a time (seq) and on the study's default
// lanes, one per GOMAXPROCS (lanes), each with ejection on and off.
// Every iteration is one fresh coordinator's run, as one lagreport
// -workers run is. It reports the median and the highest percentile
// with at least 10 runs above it (from 21 iterations on) of the run's
// wall time, and the hedges, retries and ejections per run.
func BenchmarkDistFaults(b *testing.B) {
	workers := startWorkers(b, 3)
	ft := &faultinject.FlakyTransport{
		Plan:  faultinject.HostPlan(hostOf(workers[primaryIndex("Arabeske", 1, 3)]), faultinject.FaultStall),
		Stall: time.Second,
	}
	all := Options{
		Workers:        workers,
		HTTPClient:     &http.Client{Transport: ft},
		AttemptTimeout: 250 * time.Millisecond,
		HedgeAfter:     50 * time.Millisecond,
	}
	noHedge, noEject, noRetry := all, all, all
	noHedge.HedgeAfter = 0
	noEject.EjectAfter = math.MaxInt32
	noRetry.MaxAttempts = 1
	noHedgeEject := noHedge
	noHedgeEject.EjectAfter = math.MaxInt32
	cfg := studyConfig(b)
	catalog := report.StudyConfig{Apps: apps.Catalog(), SessionsPerApp: 1, Seed: 7, SessionSeconds: 2, Sequential: true}
	lanes := catalog
	lanes.Sequential = false
	for _, sub := range []struct {
		name string
		opt  Options
		cfg  report.StudyConfig
	}{
		{"all", all, cfg}, {"no-hedge", noHedge, cfg}, {"no-eject", noEject, cfg}, {"no-retry", noRetry, cfg},
		{"catalog-seq-eject", noHedge, catalog}, {"catalog-seq-no-eject", noHedgeEject, catalog},
		{"catalog-lanes-eject", noHedge, lanes}, {"catalog-lanes-no-eject", noHedgeEject, lanes},
	} {
		b.Run(sub.name, func(b *testing.B) {
			walls := make([]time.Duration, b.N)
			var sum Stats
			for i := range walls {
				c, err := New(sub.opt)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := c.RunStudy(context.Background(), sub.cfg); err != nil {
					b.Fatal(err)
				}
				walls[i] = time.Since(start)
				st := c.Stats()
				sum.Hedges += st.Hedges
				sum.Retries += st.Retries
				sum.Ejected += st.Ejected
			}
			slices.Sort(walls)
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(walls[b.N/2]), "median-ms")
			if k := b.N - 10; 2*k > b.N {
				b.ReportMetric(ms(walls[k-1]), fmt.Sprintf("p%d-ms", 100*k/b.N))
			}
			b.ReportMetric(float64(sum.Hedges)/float64(b.N), "hedges/op")
			b.ReportMetric(float64(sum.Retries)/float64(b.N), "retries/op")
			b.ReportMetric(float64(sum.Ejected)/float64(b.N), "ejections/op")
		})
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
