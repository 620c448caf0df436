package lila

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"lagalyzer/internal/trace"
)

// allocTestTrace builds a v2 trace whose symbols and stacks repeat
// heavily, the shape real profiler output has (the same few painted
// classes and idle stacks, tens of thousands of times).
func allocTestTrace(t *testing.T, calls int) []byte {
	t.Helper()
	var buf bytes.Buffer
	h := Header{App: "AllocLean", SessionID: 1, GUIThread: 1,
		FilterThreshold: trace.Ms(3), SamplePeriod: trace.Ms(10)}
	bw, err := NewV2Writer(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	write := func(r *Record) {
		t.Helper()
		if err := bw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	write(&Record{Type: RecThread, Thread: 1, Name: "AWT-EventQueue-0"})
	classes := []string{"com.example.View", "com.example.Model", "javax.swing.JComponent", "java.util.HashMap"}
	stacks := [][]trace.Frame{
		{{Class: "com.example.View", Method: "paint"}, {Class: "java.awt.EventQueue", Method: "dispatchEvent"}},
		{{Class: "java.lang.Object", Method: "wait", Native: true}, {Class: "java.awt.EventQueue", Method: "getNextEvent"}},
	}
	now := trace.Time(0)
	for i := 0; i < calls; i++ {
		write(&Record{Type: RecCall, Time: now, Thread: 1, Kind: trace.KindDispatch,
			Class: classes[i%len(classes)], Method: "run"})
		now += trace.Time(trace.Ms(1))
		write(&Record{Type: RecSample, Time: now, Thread: 1,
			State: trace.StateRunnable, Stack: stacks[i%len(stacks)]})
		now += trace.Time(trace.Ms(1))
		write(&Record{Type: RecReturn, Time: now, Thread: 1})
	}
	write(&Record{Type: RecEnd, Time: now})
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSampleStackDedup: identical sampled stacks within one session
// must decode onto one shared []Frame, not per-record copies.
func TestSampleStackDedup(t *testing.T) {
	data := allocTestTrace(t, 10)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	byLeaf := make(map[string][]*Record)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == RecSample && len(rec.Stack) > 0 {
			leaf := rec.Stack[0].Class + "#" + rec.Stack[0].Method
			byLeaf[leaf] = append(byLeaf[leaf], rec)
		}
	}
	if len(byLeaf) != 2 {
		t.Fatalf("distinct sampled stacks = %d, want 2", len(byLeaf))
	}
	for leaf, recs := range byLeaf {
		if len(recs) < 2 {
			t.Fatalf("stack %s sampled %d times, want >= 2", leaf, len(recs))
		}
		first := recs[0].Stack
		for _, rec := range recs[1:] {
			if &rec.Stack[0] != &first[0] {
				t.Errorf("stack %s decoded onto distinct backing arrays", leaf)
			}
		}
	}
}

// TestSymbolsSharedPerRead: within one read, text or v2, equal symbols
// decode onto one string backing; the table that shares them belongs
// to the read. A v2 read copies its table out of the file, so a
// session built through OpenV2File keeps its symbols after Close
// unmaps the file.
func TestSymbolsSharedPerRead(t *testing.T) {
	data := allocTestTrace(t, 10)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := v.Records(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	tw, err := NewTextWriter(&text, v.Header())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := tw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{"v2": data, "text": text.Bytes()} {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		checkShared(t, name, drainReader(t, r))
	}

	path := filepath.Join(t.TempDir(), "alloc.lila")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mv, err := OpenV2File(f, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&mv.d.data[0]))
	hi := lo + uintptr(len(mv.d.data))
	// What a session keeps of a record: its strings and its stack.
	var kept []Record
	if _, err := mv.Each(false, 1, func(r *Record) error {
		kept = append(kept, Record{Class: r.Class, Method: r.Method, Name: r.Name, Stack: r.Stack})
		for _, s := range symbols(r) {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
				t.Fatalf("symbol %q points into the file's data", s)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := mv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if got, want := symbols(&kept[i]), symbols(recs[i]); !slices.Equal(got, want) {
			t.Fatalf("record %d after Close: symbols %q, want %q", i, got, want)
		}
	}
}

// symbols lists r's non-empty strings: class, method, thread name, and
// every frame's class and method.
func symbols(r *Record) []string {
	var out []string
	for _, s := range []string{r.Class, r.Method, r.Name} {
		if s != "" {
			out = append(out, s)
		}
	}
	for _, f := range r.Stack {
		out = append(out, f.Class, f.Method)
	}
	return out
}

// checkShared fails t unless equal symbols across recs share one
// string backing.
func checkShared(t *testing.T, name string, recs []*Record) {
	t.Helper()
	first := make(map[string]*byte)
	uses := 0
	for _, r := range recs {
		for _, s := range symbols(r) {
			p := unsafe.StringData(s)
			if q, ok := first[s]; !ok {
				first[s] = p
			} else if p != q {
				t.Errorf("%s read: symbol %q has two backings", name, s)
			}
			uses++
		}
	}
	if len(first) < 8 || uses < 4*len(first) {
		t.Fatalf("%s read: %d distinct symbols in %d uses; the trace should repeat a few", name, len(first), uses)
	}
}
