package lila_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lagalyzer/internal/faultinject"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// genTrace writes a deterministic multi-episode trace and returns the
// encoded bytes alongside the records that went in.
func genTrace(t testing.TB, f lila.Format, episodes int) ([]byte, lila.Header, []*lila.Record) {
	t.Helper()
	h := lila.Header{App: "salvage-app", SessionID: 7, GUIThread: 1,
		FilterThreshold: 0, SamplePeriod: trace.Ms(10), Start: 0}
	var recs []*lila.Record
	recs = append(recs,
		&lila.Record{Type: lila.RecThread, Thread: 1, Name: "edt"},
		&lila.Record{Type: lila.RecThread, Thread: 2, Name: "worker", Daemon: true},
	)
	tm := trace.Time(trace.Ms(1))
	step := trace.Time(trace.Ms(1))
	for i := 0; i < episodes; i++ {
		cls := fmt.Sprintf("app.Widget%d", i%5)
		recs = append(recs,
			&lila.Record{Type: lila.RecCall, Time: tm, Thread: 1, Kind: trace.KindDispatch},
			&lila.Record{Type: lila.RecCall, Time: tm + step, Thread: 1, Kind: trace.KindListener, Class: cls, Method: "actionPerformed"},
			&lila.Record{Type: lila.RecSample, Time: tm + 2*step, Thread: 1, State: trace.StateRunnable,
				Stack: []trace.Frame{{Class: cls, Method: "actionPerformed"}, {Class: "java.awt.EventQueue", Method: "dispatchEvent"}}},
			&lila.Record{Type: lila.RecReturn, Time: tm + 3*step, Thread: 1},
			&lila.Record{Type: lila.RecReturn, Time: tm + 4*step, Thread: 1},
		)
		tm += 6 * step
	}
	recs = append(recs, &lila.Record{Type: lila.RecEnd, Time: tm, Count: 2})

	var buf bytes.Buffer
	w, err := lila.NewWriter(&buf, f, h)
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
	return buf.Bytes(), h, recs
}

// salvageAll drains a salvage-mode reader, failing the test on any
// non-EOF error (salvage mode must not surface record errors).
func salvageAll(t testing.TB, data []byte) ([]*lila.Record, *lila.SalvageReport) {
	t.Helper()
	r, err := lila.NewReaderOptions(bytes.NewReader(data), lila.ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatalf("opening salvage reader: %v", err)
	}
	var recs []*lila.Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("salvage read: %v", err)
		}
		recs = append(recs, rec)
	}
	rep := lila.SalvageOf(r)
	if rep == nil {
		t.Fatal("salvage reader returned no report")
	}
	return recs, rep
}

func TestSalvageCleanTrace(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		data, _, want := genTrace(t, f, 10)
		got, rep := salvageAll(t, data)
		if rep.Damaged() {
			t.Errorf("%v: clean trace reported damage: %s", f, rep)
		}
		if rep.RecordsKept != len(want) {
			t.Errorf("%v: kept %d records, want %d", f, rep.RecordsKept, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: salvage of clean trace changed records", f)
		}
	}
}

// v2Blocks returns the block index of a clean v2 trace and, per
// block, the index of its first record in the trace's record stream.
func v2Blocks(t testing.TB, data []byte) ([]lila.V2BlockInfo, []int) {
	t.Helper()
	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := v.Blocks()
	first := make([]int, len(blocks))
	n := 0
	for i, b := range blocks {
		first[i] = n
		n += b.Records
	}
	return blocks, first
}

// sameRecords is reflect.DeepEqual, except that a nil and an empty
// stream are the same.
func sameRecords(a, b []*lila.Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestSalvageTruncated is the golden truncation test: records salvaged
// from a truncated trace must be exactly the decodable prefix of the
// original record stream, and the report must flag the lost tail.
// Text keeps every line before the cut; v2 keeps every block before
// it and itemizes the block the cut tears.
func TestSalvageTruncated(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		data, _, want := genTrace(t, f, 20)
		for _, frac := range []float64{0.35, 0.6, 0.9} {
			cut := faultinject.TruncateFrac(data, frac)
			got, rep := salvageAll(t, cut)
			if !rep.TruncatedTail {
				t.Errorf("%v frac=%v: truncated tail not reported: %s", f, frac, rep)
			}
			switch f {
			case lila.FormatText:
				if len(got) == 0 {
					t.Errorf("%v frac=%v: salvaged nothing from %d bytes", f, frac, len(cut))
				}
			case lila.FormatV2:
				blocks, first := v2Blocks(t, data)
				i := 0
				for i < len(blocks) && blocks[i].Offset+blocks[i].Length <= int64(len(cut)) {
					i++
				}
				if len(got) != first[i] {
					t.Errorf("%v frac=%v: kept %d records, want the %d of the %d blocks before the cut",
						f, frac, len(got), first[i], i)
				}
				if rep.RecordsDropped != blocks[i].Records || rep.BytesSkipped != int64(len(cut))-blocks[i].Offset {
					t.Errorf("%v frac=%v: dropped %d records, skipped %d bytes; want the torn block's %d records and %d bytes",
						f, frac, rep.RecordsDropped, rep.BytesSkipped, blocks[i].Records, int64(len(cut))-blocks[i].Offset)
				}
			}
			if len(got) >= len(want) {
				t.Errorf("%v frac=%v: kept %d records from truncated trace of %d", f, frac, len(got), len(want))
			}
			// Golden property: the survivors are the uncorrupted prefix.
			if !sameRecords(got, want[:len(got)]) {
				t.Errorf("%v frac=%v: salvaged records diverge from original prefix", f, frac)
			}
			if rep.RecordsKept != len(got) {
				t.Errorf("%v frac=%v: report kept %d, reader yielded %d", f, frac, rep.RecordsKept, len(got))
			}
		}
	}
}

// TestSalvageBitFlips corrupts bytes mid-stream and checks the reader
// resynchronizes: the prefix before the damage survives verbatim, the
// report accounts for the loss, and a lenient session build succeeds.
// Text drops the damaged lines; v2 keeps every block no flip touched
// and drops each one a flip did, with its records itemized.
func TestSalvageBitFlips(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		data, _, want := genTrace(t, f, 40)
		lo := len(data) / 3 // keep header and an ample prefix intact
		for seed := uint64(1); seed <= 5; seed++ {
			bad := faultinject.FlipBits(data, seed, 8, lo, 0)
			got, rep := salvageAll(t, bad)
			if !rep.Damaged() {
				// A flip can land inside a symbol name, yielding a
				// valid record with different content — undetectable by
				// any decoder. The record count still must hold.
				if len(got) != len(want) {
					t.Errorf("%v seed=%d: record count changed (%d != %d) but no damage reported",
						f, seed, len(got), len(want))
				}
				continue
			}
			if rep.RecordsKept != len(got) {
				t.Errorf("%v seed=%d: report kept %d, reader yielded %d", f, seed, rep.RecordsKept, len(got))
			}
			if rep.FirstError == "" {
				t.Errorf("%v seed=%d: damaged report carries no first error", f, seed)
			}
			// The prefix strictly before the first flipped byte decodes
			// identically; find how many original records that covers by
			// decoding the undamaged prefix in salvage mode too.
			prefix, _ := salvageAll(t, data[:lo])
			if len(got) < len(prefix) {
				t.Errorf("%v seed=%d: kept %d records, undamaged prefix alone holds %d",
					f, seed, len(got), len(prefix))
			}
			if !sameRecords(got[:len(prefix)], prefix) {
				t.Errorf("%v seed=%d: records before the damage diverge", f, seed)
			}
			if f == lila.FormatV2 {
				blocks, first := v2Blocks(t, data)
				var intact []*lila.Record
				dropped := 0
				for i, b := range blocks {
					if bytes.Equal(bad[b.Offset:b.Offset+b.Length], data[b.Offset:b.Offset+b.Length]) {
						intact = append(intact, want[first[i]:first[i]+b.Records]...)
					} else {
						dropped += b.Records
					}
				}
				if !sameRecords(got, intact) {
					t.Errorf("%v seed=%d: kept %d records, want the %d of the blocks no flip touched",
						f, seed, len(got), len(intact))
				}
				if rep.RecordsDropped != dropped {
					t.Errorf("%v seed=%d: dropped %d records, want the damaged blocks' %d", f, seed, rep.RecordsDropped, dropped)
				}
			}
			// End to end: a lenient build over the salvaged records must
			// produce a valid (possibly degraded) session, with episodes
			// whenever a dispatch survived.
			lr, err := lila.NewReaderOptions(bytes.NewReader(bad), lila.ReaderOptions{Salvage: true})
			if err != nil {
				t.Errorf("%v seed=%d: salvage reader over damaged trace: %v", f, seed, err)
				continue
			}
			s, diag, err := treebuild.BuildOptions(lr, treebuild.Options{Lenient: true})
			if err != nil {
				t.Errorf("%v seed=%d: lenient build over salvaged trace: %v", f, seed, err)
				continue
			}
			dispatched := slices.ContainsFunc(got, func(r *lila.Record) bool {
				return r.Type == lila.RecCall && r.Kind == trace.KindDispatch
			})
			if s == nil || (dispatched && len(s.Episodes) == 0) {
				t.Errorf("%v seed=%d: salvaged session has no episodes", f, seed)
			}
			if !lila.SalvageOf(lr).Damaged() && !diag.Degraded() {
				t.Errorf("%v seed=%d: damaged ingest not reflected in health", f, seed)
			}
		}
	}
}

// TestSalvageDeterministic re-runs salvage over the same damaged input
// and requires byte-identical outcomes — reports feed the study health
// sections, which participate in the byte-identical output guarantee.
func TestSalvageDeterministic(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		data, _, _ := genTrace(t, f, 30)
		bad := faultinject.FlipBits(data, 42, 12, len(data)/4, 0)
		bad = faultinject.Truncate(bad, len(bad)-len(bad)/10)
		recs1, rep1 := salvageAll(t, bad)
		recs2, rep2 := salvageAll(t, bad)
		if !reflect.DeepEqual(recs1, recs2) {
			t.Errorf("%v: salvaged records differ between runs", f)
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%v: salvage reports differ between runs: %+v vs %+v", f, rep1, rep2)
		}
	}
}

// TestSalvageTextLineDamage corrupts individual text lines and checks
// the per-line accounting is exact.
func TestSalvageTextLineDamage(t *testing.T) {
	data, _, want := genTrace(t, lila.FormatText, 10)
	lines := strings.Split(string(data), "\n")
	// Damage three record lines (well past the 7 header lines).
	damaged := 0
	for _, i := range []int{10, 15, 22} {
		if i < len(lines) && lines[i] != "" && lines[i][0] != 'E' {
			lines[i] = "X" + lines[i]
			damaged++
		}
	}
	got, rep := salvageAll(t, []byte(strings.Join(lines, "\n")))
	if rep.RecordsDropped != damaged {
		t.Errorf("dropped %d records, want %d", rep.RecordsDropped, damaged)
	}
	if rep.RecordsKept != len(want)-damaged {
		t.Errorf("kept %d records, want %d", rep.RecordsKept, len(want)-damaged)
	}
	if len(got) != len(want)-damaged {
		t.Errorf("yielded %d records, want %d", len(got), len(want)-damaged)
	}
	if rep.TruncatedTail {
		t.Errorf("tail intact but reported truncated: %s", rep)
	}
}

// TestStrictReadersStillFail pins the fail-stop default: without
// Salvage the same damage is an error, not a degraded success.
func TestStrictReadersStillFail(t *testing.T) {
	for _, f := range []lila.Format{lila.FormatText, lila.FormatV2} {
		data, _, _ := genTrace(t, f, 10)
		// Truncation is unambiguous damage in both formats; a bit flip
		// can land inside a symbol name where no decoder can tell.
		cut := faultinject.TruncateFrac(data, 0.5)
		r, err := lila.NewReader(bytes.NewReader(cut))
		if err != nil {
			continue // header damage: also a fail, fine
		}
		var readErr error
		for {
			_, readErr = r.Read()
			if readErr != nil {
				break
			}
		}
		if readErr == io.EOF {
			t.Errorf("%v: strict reader accepted truncated trace", f)
		}
	}
}
