package stream

import (
	"strings"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
)

// encode serializes a simulated session and returns the encoded trace
// plus the records it contains.
func encode(t *testing.T, app string, format lila.Format) (string, []*lila.Record) {
	t.Helper()
	profile, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 11, SessionSeconds: 25})
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
	return sb.String(), recs
}

// TestThroughputAccounting checks the progress/throughput fields: the
// bytes counted must equal the encoded trace size and the records
// counted must equal the number of records actually in the trace, for
// both encodings.
func TestThroughputAccounting(t *testing.T) {
	for _, format := range []lila.Format{lila.FormatText, lila.FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			encoded, recs := encode(t, "CrosswordSage", format)

			recBefore := obs.NewCounter("stream_records_total", "").Value()
			byteBefore := obs.NewCounter("stream_bytes_total", "").Value()

			st, err := AnalyzeStream(strings.NewReader(encoded), 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Bytes != int64(len(encoded)) {
				t.Errorf("Bytes = %d, want %d (encoded trace size)", st.Bytes, len(encoded))
			}
			if st.Records != len(recs) {
				t.Errorf("Records = %d, want %d", st.Records, len(recs))
			}
			if st.Elapsed <= 0 {
				t.Error("Elapsed not measured")
			}
			if st.BytesPerSec() <= 0 || st.RecordsPerSec() <= 0 {
				t.Errorf("throughput not derivable: %v B/s, %v rec/s", st.BytesPerSec(), st.RecordsPerSec())
			}

			// The global decode counters advance by the same amounts.
			if got := obs.NewCounter("stream_records_total", "").Value() - recBefore; got != int64(len(recs)) {
				t.Errorf("stream_records_total advanced by %d, want %d", got, len(recs))
			}
			if got := obs.NewCounter("stream_bytes_total", "").Value() - byteBefore; got != int64(len(encoded)) {
				t.Errorf("stream_bytes_total advanced by %d, want %d", got, len(encoded))
			}
		})
	}
}

// TestAnalyzeRecordsCountsRecords: the in-memory path counts records
// too (bytes stay zero — there is no encoded input).
func TestAnalyzeRecordsCountsRecords(t *testing.T) {
	profile, err := apps.ByName("SwingSet")
	if err != nil {
		t.Fatal(err)
	}
	recs, h, err := sim.Records(sim.Config{Profile: profile, Seed: 2, SessionSeconds: 15})
	if err != nil {
		t.Fatal(err)
	}
	st, err := AnalyzeRecords(h, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != len(recs) {
		t.Errorf("Records = %d, want %d", st.Records, len(recs))
	}
	if st.Bytes != 0 {
		t.Errorf("Bytes = %d, want 0 for the in-memory path", st.Bytes)
	}
}
