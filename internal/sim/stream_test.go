package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// sessionBytes encodes one session as a LiLa v2 trace, the
// byte-level identity the equivalence tests compare.
func sessionBytes(t *testing.T, s *trace.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lila.WriteSession(&buf, lila.FormatV2, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunMatchesRecords: the session Run streams into the builder
// equals the one rebuilt from the collected record stream, for every
// catalog app, two sessions each, with and without materialized
// short episodes.
func TestRunMatchesRecords(t *testing.T) {
	for _, p := range apps.Catalog() {
		for id := 0; id < 2; id++ {
			for _, short := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%d/short=%v", p.Name, id, short), func(t *testing.T) {
					cfg := sim.Config{Profile: p, SessionID: id, Seed: 42, SessionSeconds: 20, MaterializeShort: short}
					streamed, err := sim.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					recs, h, err := sim.Records(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if h != cfg.Header() {
						t.Errorf("Records header %+v, Config.Header %+v", h, cfg.Header())
					}
					slab, _, err := treebuild.BuildRecords(h, recs)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sessionBytes(t, streamed), sessionBytes(t, slab)) {
						t.Error("streamed session differs from the one built from Records")
					}
				})
			}
		}
	}
}

// TestStreamSharesStacks: every sample of one distinct stack carries
// the same slice, so a session holds each distinct stack once.
func TestStreamSharesStacks(t *testing.T) {
	cfg := sim.Config{Profile: apps.ArgoUML(), Seed: 9, SessionSeconds: 30}
	first := map[string]*trace.Frame{}
	samples := 0
	err := sim.Stream(cfg, func(r *lila.Record) error {
		if r.Type != lila.RecSample || len(r.Stack) == 0 {
			return nil
		}
		samples++
		key := fmt.Sprint(r.Stack)
		if p, ok := first[key]; !ok {
			first[key] = &r.Stack[0]
		} else if p != &r.Stack[0] {
			return fmt.Errorf("stack %s at %v is a second copy", key, r.Time)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10*len(first) {
		t.Errorf("%d samples over %d distinct stacks: too few repeats to test sharing", samples, len(first))
	}
}

// TestStreamStopsAtSinkError: the sink's first error ends the session
// and comes back unchanged.
func TestStreamStopsAtSinkError(t *testing.T) {
	stop := fmt.Errorf("enough")
	n := 0
	err := sim.Stream(sim.Config{Profile: apps.Jmol(), Seed: 1, SessionSeconds: 20}, func(*lila.Record) error {
		if n++; n == 100 {
			return stop
		}
		return nil
	})
	if err != stop || n != 100 {
		t.Errorf("Stream returned %v after %d records, want %v after 100", err, n, stop)
	}
}

// TestRunAllocs pins Run's heap allocations for a short session well
// below its record count: a record that escapes to the heap on its
// way to the builder would cost one allocation per record.
func TestRunAllocs(t *testing.T) {
	cfg := sim.Config{Profile: apps.CrosswordSage(), Seed: 1, SessionSeconds: 20}
	recs, _, err := sim.Records(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(recs)) / 4; allocs > limit {
		t.Errorf("sim.Run: %.0f allocations for %d records, want at most %.0f", allocs, len(recs), limit)
	}
}

// TestStreamDigestPinned pins the simulator's bytes: the SHA-256 of
// the text and v2 encodings of Stream's records for three catalog
// apps. Any change to a record, a stack or the PRNG draws that make
// them shows here, not only in the figures built from them.
func TestStreamDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		p        *sim.Profile
		text, v2 string
	}{
		{apps.ArgoUML(),
			"8eb8c01634593f8d3664b936cc8bb048f1d86f4d8f5bc1ac4db8648f28338b8a",
			"8bc55560a8bb562de2b12afe0ba589974edf969b57409c5e322a30170d6f7485"},
		{apps.GanttProject(),
			"e3b7ac527c85461de5ec760a3ced72921869c2aa806fb9506496ba2b546aff0c",
			"47a85667efd043b686e5716f8b58706cbeab4d9594a9d3f998a60d20b7bed27a"},
		{apps.Jmol(),
			"0624410c96fb980110f5ba4bcd1ead40cec73504ea4661db3bb178225bb42285",
			"7d148e711f346dfeef154c5cc88cb5333a309193138bdb718749d5ac2d5f67c1"},
	} {
		cfg := sim.Config{Profile: tc.p, Seed: 7, SessionSeconds: 60}
		for _, f := range []struct {
			format lila.Format
			want   string
		}{{lila.FormatText, tc.text}, {lila.FormatV2, tc.v2}} {
			h := sha256.New()
			w, err := lila.NewWriter(h, f.format, cfg.Header())
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Stream(cfg, w.WriteRecord); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != f.want {
				t.Errorf("%s %s: sha256 %s, want %s", tc.p.Name, f.format, got, f.want)
			}
		}
	}
}
