package lila

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"lagalyzer/internal/trace"
)

func testHeader() Header {
	return Header{
		App:             "Test App", // space exercises quoting
		SessionID:       2,
		GUIThread:       1,
		FilterThreshold: 3 * trace.Millisecond,
		SamplePeriod:    10 * trace.Millisecond,
		Start:           0,
	}
}

func testRecords() []*Record {
	ms := func(v float64) trace.Time { return trace.Time(trace.Ms(v)) }
	return []*Record{
		{Type: RecThread, Thread: 1, Name: "AWT-EventQueue-0"},
		{Type: RecThread, Thread: 2, Name: "Worker Pool 1", Daemon: true},
		{Type: RecCall, Time: ms(10), Thread: 1, Kind: trace.KindDispatch},
		{Type: RecCall, Time: ms(10), Thread: 1, Kind: trace.KindListener, Class: "app.Button", Method: "actionPerformed"},
		{Type: RecSample, Time: ms(15), Thread: 1, State: trace.StateRunnable, Stack: []trace.Frame{
			{Class: "app.Model", Method: "update"},
			{Class: "app.Button", Method: "actionPerformed"},
		}},
		{Type: RecSample, Time: ms(15), Thread: 2, State: trace.StateWaiting},
		{Type: RecGCStart, Time: ms(20), Major: true},
		{Type: RecGCEnd, Time: ms(120)},
		{Type: RecSample, Time: ms(125), Thread: 1, State: trace.StateSleeping, Stack: []trace.Frame{
			{Class: "sun.java2d.loops.DrawLine", Method: "DrawLine", Native: true},
		}},
		{Type: RecReturn, Time: ms(200), Thread: 1},
		{Type: RecReturn, Time: ms(200), Thread: 1},
		{Type: RecEnd, Time: ms(1000), Count: 4321},
	}
}

func roundTrip(t *testing.T, f Format) ([]*Record, Header) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, f, testHeader())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, rec := range testRecords() {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatalf("WriteRecord(%v): %v", rec.Type, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got []*Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got = append(got, rec)
	}
	return got, r.Header()
}

func TestRoundTrip(t *testing.T) {
	for _, f := range []Format{FormatText, FormatV2} {
		t.Run(f.String(), func(t *testing.T) {
			got, h := roundTrip(t, f)
			if h != testHeader() {
				t.Errorf("header = %+v, want %+v", h, testHeader())
			}
			want := testRecords()
			if len(got) != len(want) {
				t.Fatalf("read %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRecordValidate(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		ok   bool
	}{
		{"gc call", Record{Type: RecCall, Kind: trace.KindGC}, false},
		{"bad kind", Record{Type: RecCall, Kind: 77}, false},
		{"unnamed thread", Record{Type: RecThread, Thread: 3}, false},
		{"bad state", Record{Type: RecSample, State: 9}, false},
		{"bad type", Record{Type: 42}, false},
		{"good call", Record{Type: RecCall, Kind: trace.KindPaint, Class: "a", Method: "b"}, true},
		{"good end", Record{Type: RecEnd}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rec.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestTextRejectsReservedSymbols(t *testing.T) {
	w, err := NewTextWriter(&bytes.Buffer{}, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Record{
		{Type: RecCall, Kind: trace.KindPaint, Class: "has space", Method: "m"},
		{Type: RecCall, Kind: trace.KindPaint, Class: "a", Method: "semi;colon"},
		{Type: RecSample, State: trace.StateRunnable, Stack: []trace.Frame{{Class: "a#b", Method: "m"}}},
	}
	for i, rec := range bad {
		if err := w.WriteRecord(rec); err == nil {
			t.Errorf("record %d with reserved characters was accepted", i)
		}
	}
}

func TestTextParserErrors(t *testing.T) {
	header := "#lila text 1\n#app \"X\"\n#session 0\n#gui 1\n#filter 0\n#sampleperiod 0\n#start 0\n"
	cases := []struct {
		name string
		body string
	}{
		{"unknown op", "Z 1 2\n"},
		{"short call", "C 100 1 paint\n"},
		{"bad kind", "C 100 1 warp a b\n"},
		{"bad time", "C abc 1 paint a b\n"},
		{"bad state", "S 100 1 zombie -\n"},
		{"bad frame", "S 100 1 runnable noseparator\n"},
		{"empty frame class", "S 100 1 runnable #m\n"},
		{"bad thread quote", "T 1 unquoted 0\n"},
		{"short end", "E 100\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewTextReader(strings.NewReader(header + tc.body))
			if err != nil {
				t.Fatalf("header rejected: %v", err)
			}
			if _, err := r.Read(); err == nil {
				t.Error("malformed record accepted")
			}
		})
	}
}

func TestTextHeaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"wrong magic", "#nope text 1\n"},
		{"binary claimed", "#lila binary 1\n"},
		{"bad version", "#lila text 9\n"},
		{"missing fields", "#lila text 1\n#app \"X\"\n"},
		{"bad session", "#lila text 1\n#app \"X\"\n#session x\n#gui 1\n#filter 0\n#sampleperiod 0\n#start 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTextReader(strings.NewReader(tc.in)); err == nil {
				t.Error("malformed header accepted")
			}
		})
	}
}

func TestTruncatedTraces(t *testing.T) {
	for _, f := range []Format{FormatText, FormatV2} {
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, f, testHeader())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRecord(&Record{Type: RecCall, Time: 5, Thread: 1, Kind: trace.KindDispatch}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// No RecEnd was written: the reader must report truncation.
			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var readErr error
			for readErr == nil {
				_, readErr = r.Read()
			}
			if readErr == io.EOF || !strings.Contains(readErr.Error(), "truncated") {
				t.Errorf("truncated trace error = %v, want truncation report", readErr)
			}
		})
	}
}

func TestReaderSniffsFormat(t *testing.T) {
	for _, f := range []Format{FormatText, FormatV2} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, f, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(&Record{Type: RecEnd, Time: 1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf) // plain io.Reader, no Seek/Peek
		if err != nil {
			t.Fatalf("%v: NewReader: %v", f, err)
		}
		if r.Header().App != "Test App" {
			t.Errorf("%v: sniffed header app = %q", f, r.Header().App)
		}
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// A retired v1 stream (or any version but v2) is named as such,
	// with the way out; input with no LiLa magic is not a trace.
	for _, in := range []string{"LILA\x01\x08Test App\x04\x02", "LILA\x07"} {
		_, err := NewReader(strings.NewReader(in))
		if !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("%q: err = %v, want ErrUnsupportedVersion with a regenerate hint", in, err)
		}
	}
	for _, in := range []string{"NOPE\x01rest", "LI"} {
		_, err := NewReader(strings.NewReader(in))
		if err == nil || errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "not a LiLa trace") {
			t.Errorf("%q: err = %v, want a not-a-LiLa-trace error", in, err)
		}
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat("text"); err != nil || f != FormatText {
		t.Errorf("ParseFormat(text) = %v, %v", f, err)
	}
	if _, err := ParseFormat("binary"); err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("ParseFormat(binary) = %v, want the retired v1 format rejected naming v2", err)
	}
	if _, err := NewWriterOptions(io.Discard, testHeader(), WriteOptions{Format: 1}); err == nil ||
		!strings.Contains(err.Error(), "v2") {
		t.Errorf("NewWriterOptions(format 1) = %v, want v1 rejected naming v2", err)
	}
	if f, err := ParseFormat("v2"); err != nil || f != FormatV2 {
		t.Errorf("ParseFormat(v2) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) accepted")
	}
	if got := Format(9).String(); got != "format(9)" {
		t.Errorf("Format(9).String() = %q", got)
	}
}

func TestWriteAfterClose(t *testing.T) {
	for _, f := range []Format{FormatText, FormatV2} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, f, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(&Record{Type: RecEnd}); err == nil {
			t.Errorf("%v: write after close accepted", f)
		}
		if err := w.Close(); err != nil {
			t.Errorf("%v: double close: %v", f, err)
		}
	}
}

func TestFlattenOrdersNestedBoundaries(t *testing.T) {
	// Child ends exactly when the next child starts, and when the
	// parent ends; flatten must order returns before calls and deeper
	// returns first so a stack-based rebuilder never underflows.
	root := trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(100))
	a := root.AddChild(trace.NewInterval(trace.KindListener, "x.A", "run", 0, trace.Ms(50)))
	a.AddChild(trace.NewInterval(trace.KindPaint, "x.P", "paint", trace.Time(trace.Ms(20)), trace.Ms(30)))
	root.AddChild(trace.NewInterval(trace.KindPaint, "x.Q", "paint", trace.Time(trace.Ms(50)), trace.Ms(50)))

	s := &trace.Session{
		App: "t", GUIThread: 1, Start: 0, End: trace.Time(trace.Ms(100)),
		Threads:  []trace.ThreadInfo{{ID: 1, Name: "edt"}},
		Episodes: []*trace.Episode{{Index: 0, Thread: 1, Root: root}},
	}
	recs := Flatten(s)

	depth := 0
	for _, rec := range recs {
		switch rec.Type {
		case RecCall:
			depth++
		case RecReturn:
			depth--
			if depth < 0 {
				t.Fatal("stack underflow in flattened stream")
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced stream: depth %d at end", depth)
	}
	if recs[len(recs)-1].Type != RecEnd {
		t.Error("stream does not end with RecEnd")
	}

	// At t=50ms: P returns (deepest), A returns, then Q is called.
	var at50 []RecType
	for _, rec := range recs {
		if rec.Time == trace.Time(trace.Ms(50)) {
			at50 = append(at50, rec.Type)
		}
	}
	want := []RecType{RecReturn, RecReturn, RecCall}
	if !reflect.DeepEqual(at50, want) {
		t.Errorf("events at 50ms = %v, want %v", at50, want)
	}
}

func TestFlattenSkipsEmbeddedGC(t *testing.T) {
	root := trace.NewInterval(trace.KindDispatch, "", "", 0, trace.Ms(100))
	root.AddChild(trace.NewGC(trace.Time(trace.Ms(10)), trace.Ms(20), true))
	gc := trace.NewGC(trace.Time(trace.Ms(10)), trace.Ms(20), true)
	s := &trace.Session{
		App: "t", GUIThread: 1, Start: 0, End: trace.Time(trace.Ms(100)),
		Episodes: []*trace.Episode{{Index: 0, Thread: 1, Root: root}},
		GCs:      []*trace.Interval{gc},
	}
	recs := Flatten(s)
	var starts, calls int
	for _, rec := range recs {
		switch rec.Type {
		case RecGCStart:
			starts++
			if !rec.Major {
				t.Error("GC major flag lost")
			}
		case RecCall:
			calls++
		}
	}
	if starts != 1 {
		t.Errorf("flatten emitted %d gcstart records, want 1 (embedded copy must be skipped)", starts)
	}
	if calls != 1 {
		t.Errorf("flatten emitted %d calls, want 1 (the dispatch)", calls)
	}
}
