package lila_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"lagalyzer/internal/lila"
)

// drainUntilErr reads until the first non-EOF error and returns it
// (nil if the stream ends cleanly).
func drainUntilErr(t *testing.T, r lila.Reader) error {
	t.Helper()
	for {
		_, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// TestErrLimitClassification: tripping a resource guard surfaces an
// error matching errors.Is(err, ErrLimit) in every format — the signal
// ingest servers turn into 429 back-pressure — while plain malformed
// input must NOT match, or corrupt streams would masquerade as
// exhaustion and get retried forever.
func TestErrLimitClassification(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		t.Run(f.String(), func(t *testing.T) {
			data, _, _ := genTrace(t, f, 8)

			r, err := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{
				Limits: lila.Limits{MaxRecords: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			lerr := drainUntilErr(t, r)
			if lerr == nil {
				t.Fatal("record limit 5 never tripped on a trace with dozens of records")
			}
			if !errors.Is(lerr, lila.ErrLimit) {
				t.Errorf("limit trip not classified: errors.Is(%v, ErrLimit) = false", lerr)
			}
		})
	}
}

// TestErrLimitStringGuard: a single oversized symbol trips
// MaxStringLen as an ErrLimit in the strict text reader.
func TestErrLimitStringGuard(t *testing.T) {
	trace := "#lila text 1\n#app \"t\"\n#session 1\n#gui 1\n#filter 0\n#sampleperiod 10000000\n#start 0\n" +
		"C 10 1 listener " + strings.Repeat("x", 64) + ".Cls m\n" +
		"E 20 0\n"
	r, err := lila.NewReaderOptions(strings.NewReader(trace), lila.ReaderOptions{
		Limits: lila.Limits{MaxStringLen: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	lerr := drainUntilErr(t, r)
	if lerr == nil || !errors.Is(lerr, lila.ErrLimit) {
		t.Errorf("oversized symbol: err = %v, want ErrLimit match", lerr)
	}
}

// TestMalformedIsNotErrLimit: garbage in a strict reader is a decode
// error, not resource exhaustion.
func TestMalformedIsNotErrLimit(t *testing.T) {
	trace := "#lila text 1\n#app \"t\"\n#session 1\n#gui 1\n#filter 0\n#sampleperiod 10000000\n#start 0\n" +
		"C notatime 1 listener a.B m\n"
	r, err := lila.NewReaderOptions(strings.NewReader(trace), lila.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lerr := drainUntilErr(t, r)
	if lerr == nil {
		t.Fatal("malformed record accepted by the strict reader")
	}
	if errors.Is(lerr, lila.ErrLimit) {
		t.Errorf("malformed input misclassified as ErrLimit: %v", lerr)
	}
}

// TestErrLimitUnderSalvage: salvage mode swallows damage but must NOT
// swallow resource guards — a hostile stream that exceeds its budgets
// has to surface ErrLimit so the server can shed it.
func TestErrLimitUnderSalvage(t *testing.T) {
	data, _, _ := genTrace(t, lila.FormatText, 8)
	r, err := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{
		Salvage: true,
		Limits:  lila.Limits{MaxRecords: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	lerr := drainUntilErr(t, r)
	if lerr == nil || !errors.Is(lerr, lila.ErrLimit) {
		t.Errorf("salvage reader: err = %v, want ErrLimit match", lerr)
	}
}
