package lila

import (
	"bytes"
	"io"
	"math/rand/v2"
	"reflect"
	"testing"

	"lagalyzer/internal/trace"
)

// genRecords builds a random, well-formed record stream: balanced
// calls/returns on two threads, non-nested GC brackets, samples with
// random stacks, a final end record, all time-ordered.
func genRecords(r *rand.Rand) []*Record {
	recs := []*Record{
		{Type: RecThread, Thread: 1, Name: "edt"},
		{Type: RecThread, Thread: 2, Name: "bg thread", Daemon: true},
	}
	classes := []string{"a.B", "javax.swing.JComponent", "sun.x.Y", "org.app.Long$Inner"}
	methods := []string{"m", "paint", "actionPerformed", "run"}
	kinds := []trace.Kind{trace.KindDispatch, trace.KindListener, trace.KindPaint, trace.KindNative, trace.KindAsync}
	states := trace.ThreadStates()

	now := trace.Time(0)
	depth := map[trace.ThreadID]int{}
	inGC := false
	for i := 0; i < 300; i++ {
		now = now.Add(trace.Dur(r.Int64N(int64(trace.Ms(5)))) + 1)
		tid := trace.ThreadID(1 + r.IntN(2))
		switch choice := r.IntN(10); {
		case choice < 4: // call
			if inGC {
				continue
			}
			recs = append(recs, &Record{
				Type: RecCall, Time: now, Thread: tid,
				Kind:  kinds[r.IntN(len(kinds))],
				Class: classes[r.IntN(len(classes))], Method: methods[r.IntN(len(methods))],
			})
			depth[tid]++
		case choice < 7: // return
			if inGC || depth[tid] == 0 {
				continue
			}
			recs = append(recs, &Record{Type: RecReturn, Time: now, Thread: tid})
			depth[tid]--
		case choice < 9: // sample
			var stack []trace.Frame
			for j := 0; j < r.IntN(5); j++ {
				stack = append(stack, trace.Frame{
					Class: classes[r.IntN(len(classes))], Method: methods[r.IntN(len(methods))],
					Native: r.IntN(4) == 0,
				})
			}
			recs = append(recs, &Record{
				Type: RecSample, Time: now, Thread: tid,
				State: states[r.IntN(len(states))], Stack: stack,
			})
		default: // GC toggle
			if inGC {
				recs = append(recs, &Record{Type: RecGCEnd, Time: now})
			} else {
				recs = append(recs, &Record{Type: RecGCStart, Time: now, Major: r.IntN(3) == 0})
			}
			inGC = !inGC
		}
	}
	// Close everything.
	if inGC {
		now = now.Add(1)
		recs = append(recs, &Record{Type: RecGCEnd, Time: now})
	}
	for tid, d := range depth {
		for ; d > 0; d-- {
			now = now.Add(1)
			recs = append(recs, &Record{Type: RecReturn, Time: now, Thread: tid})
		}
	}
	recs = append(recs, &Record{Type: RecEnd, Time: now.Add(1), Count: r.IntN(1 << 20)})
	return recs
}

// TestPropertyRoundTrip encodes and decodes random record streams in
// both formats and demands exact equality.
func TestPropertyRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		r := rand.New(rand.NewPCG(seed, seed*7+1))
		recs := genRecords(r)
		h := Header{
			App:             "Prop App",
			SessionID:       int(seed),
			GUIThread:       1,
			FilterThreshold: trace.Dur(r.Int64N(int64(trace.Ms(10)))),
			SamplePeriod:    trace.Dur(r.Int64N(int64(trace.Ms(20)))),
			Start:           trace.Time(r.Int64N(1000)),
		}
		for _, f := range []Format{FormatText, FormatV2} {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, f, h)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.WriteRecord(rec); err != nil {
					t.Fatalf("seed %d %v: write: %v", seed, f, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rd, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if rd.Header() != h {
				t.Fatalf("seed %d %v: header mismatch: %+v vs %+v", seed, f, rd.Header(), h)
			}
			for i := 0; ; i++ {
				got, err := rd.Read()
				if err == io.EOF {
					if i != len(recs) {
						t.Fatalf("seed %d %v: read %d of %d records", seed, f, i, len(recs))
					}
					break
				}
				if err != nil {
					t.Fatalf("seed %d %v: read %d: %v", seed, f, i, err)
				}
				if !reflect.DeepEqual(got, recs[i]) {
					t.Fatalf("seed %d %v: record %d:\n got %+v\nwant %+v", seed, f, i, got, recs[i])
				}
			}
		}
	}
}
