package dist

import (
	"context"
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
// and ships the closed folds, and the coordinator merges and analyzes
// them. B/op counts the coordinator and the workers together.
func BenchmarkDistTraces(b *testing.B) {
	b.ReportAllocs()
	c, err := New(Options{Workers: startWorkers(b, 2)})
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
}
