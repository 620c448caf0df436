package lila

import (
	"bytes"
	"io"
	"testing"

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
