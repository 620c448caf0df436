package ingest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lagalyzer/internal/lila"
)

// FuzzIngestStream throws arbitrary bytes at the full HTTP ingest
// path. The contract under fuzz: the handler never panics, always
// answers, and leaves the server clean — no leaked session registry
// entries, no stuck memory charges. The tight budgets below push many
// inputs through the degrade/evict paths as well as the salvage
// decoders.
//
// Note for interactive runs: the seed bodies are ~100 KiB encoded
// sessions, so every coverage-expanding input costs the engine its
// full minimization budget and the execs/sec readout sits at 0 while
// it shrinks. Pass -fuzzminimizetime=2s (as make chaos does) to keep
// throughput visible.
func FuzzIngestStream(f *testing.F) {
	srv, err := New(Config{
		WindowDur:     DefaultWindowDur,
		SessionBudget: 64 << 10,
		MemoryBudget:  1 << 20,
		IdleTimeout:   time.Minute,
	})
	if err != nil {
		f.Fatal(err)
	}
	mux := mountIngest(srv)

	valid := encodeSession(f, lila.FormatText, "Jmol", 7, 5)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	damaged := append([]byte(nil), valid...)
	for i := 17; i < len(damaged); i += 97 {
		damaged[i] ^= 0x45
	}
	f.Add(damaged)
	f.Add([]byte("#"))
	f.Add([]byte("LILA\x05\x00\xff\xfe garbage"))
	f.Add(bytes.Repeat([]byte("x"), 4096))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/ingest/fuzz/s", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code == 0 {
			t.Fatal("no response written")
		}
		if n := srv.Sessions(); n != 0 {
			t.Fatalf("leaked %d live sessions", n)
		}
		if m := srv.MemInUse(); m != 0 {
			t.Fatalf("leaked %d bytes of memory charge", m)
		}
	})
}
