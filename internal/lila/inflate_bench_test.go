package lila_test

import (
	"bytes"
	"sync"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
)

// bigFlateBlocks holds the compressed blocks of one 2-hour
// GanttProject session (seed 42) encoded as LiLa v2 with flate blocks,
// the session the root package's big-session benchmarks decode.
var bigFlateBlocks = sync.OnceValues(func() (*lila.V2File, error) {
	s, err := sim.Run(sim.Config{Profile: apps.GanttProject(), Seed: 42, SessionSeconds: 2 * 3600})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	opts := lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionFlate}
	if err := lila.WriteSessionOptions(&buf, opts, s); err != nil {
		return nil, err
	}
	return lila.ParseV2(buf.Bytes(), lila.Limits{})
})

// BenchmarkInflate inflates every compressed block of the 2-hour
// session with one reused decode scratch, as one decoding goroutine of
// a v2 read does; an op is the whole session.
func BenchmarkInflate(b *testing.B) {
	v, err := bigFlateBlocks()
	if err != nil {
		b.Fatal(err)
	}
	stored, rawLen := lila.CompressedBlocks(v)
	total := 0
	for _, n := range rawLen {
		total += n
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	var in lila.BlockInflater
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range stored {
			if _, err := in.Inflate(stored[k], rawLen[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(stored)), "blocks/op")
}
