package treebuild_test

import (
	"bytes"
	"errors"
	"testing"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

func lenientRecs() (lila.Header, []*lila.Record) {
	h := lila.Header{App: "lenient", GUIThread: 1, SamplePeriod: trace.Ms(10)}
	return h, []*lila.Record{
		{Type: lila.RecThread, Thread: 1, Name: "edt"},
		{Type: lila.RecCall, Time: 10, Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: 20, Thread: 1},
		{Type: lila.RecCall, Time: 30, Thread: 1, Kind: trace.KindDispatch},
		{Type: lila.RecReturn, Time: 40, Thread: 1},
		{Type: lila.RecEnd, Time: 50},
	}
}

func TestLenientSkipsInconsistentRecords(t *testing.T) {
	h, recs := lenientRecs()
	// Splice in a return with no matching call and an out-of-order call.
	bad := append([]*lila.Record{}, recs[:3]...)
	bad = append(bad,
		&lila.Record{Type: lila.RecReturn, Time: 25, Thread: 2},
		&lila.Record{Type: lila.RecCall, Time: 5, Thread: 1, Kind: trace.KindDispatch},
	)
	bad = append(bad, recs[3:]...)

	if _, _, err := treebuild.BuildRecords(h, bad); err == nil {
		t.Fatal("strict build accepted inconsistent records")
	}
	s, diag, err := treebuild.BuildRecordsOptions(h, bad, treebuild.Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient build: %v", err)
	}
	if diag.SkippedRecords != 2 {
		t.Errorf("skipped %d records, want 2 (first: %s)", diag.SkippedRecords, diag.FirstSkipError)
	}
	if diag.FirstSkipError == "" {
		t.Error("no first-skip error recorded")
	}
	if !diag.Degraded() {
		t.Error("diagnostics not marked degraded")
	}
	if len(s.Episodes) != 2 {
		t.Errorf("got %d episodes, want 2", len(s.Episodes))
	}
}

func TestLenientSynthesizesEnd(t *testing.T) {
	h, recs := lenientRecs()
	cut := recs[:4] // ends inside the second episode, no end record

	if _, _, err := treebuild.BuildRecords(h, cut); err == nil {
		t.Fatal("strict build accepted truncated stream")
	}
	s, diag, err := treebuild.BuildRecordsOptions(h, cut, treebuild.Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient build: %v", err)
	}
	if !diag.SynthesizedEnd {
		t.Error("synthesized end not flagged")
	}
	if diag.DroppedOpenIntervals != 1 {
		t.Errorf("dropped %d open intervals, want 1", diag.DroppedOpenIntervals)
	}
	if len(s.Episodes) != 1 {
		t.Errorf("got %d episodes, want 1 (the completed one)", len(s.Episodes))
	}
	if s.End != 30 {
		t.Errorf("session end %v, want last seen time 30", s.End)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("lenient session invalid: %v", err)
	}
}

func TestLenientOpenIntervalsAtEnd(t *testing.T) {
	h, recs := lenientRecs()
	// Remove the return at index 4, leaving an open interval when the
	// end record arrives.
	bad := append(append([]*lila.Record{}, recs[:4]...), recs[5])
	s, diag, err := treebuild.BuildRecordsOptions(h, bad, treebuild.Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient build: %v", err)
	}
	if diag.DroppedOpenIntervals != 1 {
		t.Errorf("dropped %d open intervals, want 1", diag.DroppedOpenIntervals)
	}
	if len(s.Episodes) != 1 {
		t.Errorf("got %d episodes, want 1", len(s.Episodes))
	}
	if s.End != 50 {
		t.Errorf("session end %v, want 50 (real end record)", s.End)
	}
}

func TestSessionMemoryBudget(t *testing.T) {
	h, recs := lenientRecs()
	small := lila.Limits{MaxSessionBytes: 300} // a few records blow this
	_, _, err := treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Limits: small})
	if !errors.Is(err, treebuild.ErrSessionTooLarge) {
		t.Fatalf("got %v, want ErrSessionTooLarge", err)
	}
	// Lenient does not soften the memory guard.
	_, _, err = treebuild.BuildRecordsOptions(h, recs, treebuild.Options{Lenient: true, Limits: small})
	if !errors.Is(err, treebuild.ErrSessionTooLarge) {
		t.Fatalf("lenient: got %v, want ErrSessionTooLarge", err)
	}
}

// TestLenientIngestHealth reads a text trace through a salvage-mode
// reader into a lenient build: a clean trace reports no damage, one cut
// mid-stream still yields a session and reports the loss.
func TestLenientIngestHealth(t *testing.T) {
	h, recs := lenientRecs()
	var buf bytes.Buffer
	w, err := lila.NewWriter(&buf, lila.FormatText, h)
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
	ingest := func(data []byte) (*trace.Session, bool, error) {
		lr, err := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{Salvage: true})
		if err != nil {
			return nil, false, err
		}
		s, diag, err := treebuild.BuildOptions(lr, treebuild.Options{Lenient: true})
		return s, lila.SalvageOf(lr).Damaged() || diag.Degraded(), err
	}
	// Clean trace: nothing lost.
	s, degraded, err := ingest(buf.Bytes())
	if err != nil {
		t.Fatalf("clean ingest: %v", err)
	}
	if degraded {
		t.Error("clean ingest reported degraded health")
	}
	if len(s.Episodes) != 2 {
		t.Errorf("got %d episodes, want 2", len(s.Episodes))
	}
	// Damaged trace: cut mid-stream.
	s, degraded, err = ingest(buf.Bytes()[:buf.Len()*2/3])
	if err != nil {
		t.Fatalf("damaged ingest: %v", err)
	}
	if !degraded {
		t.Error("damaged ingest not reflected in health")
	}
	if s == nil {
		t.Fatal("no session from damaged ingest")
	}
}
