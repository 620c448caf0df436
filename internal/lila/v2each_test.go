package lila

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lagalyzer/internal/trace"
)

// goroutinesBackTo yields until the goroutine count is back to base.
// Each waits for its workers before it returns, but a worker that has
// signalled its exit may not have been reaped yet; the deadline only
// bounds a real leak.
func goroutinesBackTo(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// TestEachEarlyExitStopsWorkers pins the read-ahead pipeline's
// lifetime: whichever way Each stops early at 8 workers — a strict
// checksum error in block 1, fn failing on the first record, or the
// record limit — it returns the right error, and every worker has
// exited by the time it does.
func TestEachEarlyExitStopsWorkers(t *testing.T) {
	recs := v2LongRecords(600)
	data := writeV2C(t, recs, 8, CompressionFlate)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Blocks()) < 100 {
		t.Fatalf("only %d blocks; the pipeline test needs many", len(v.Blocks()))
	}
	corrupt := bytes.Clone(data)
	b1 := v.Blocks()[1]
	corrupt[b1.Offset+b1.Length-1] ^= 0xff

	errStop := errors.New("stop")
	nop := func(*Record) error { return nil }
	cases := []struct {
		name   string
		data   []byte
		limits Limits
		fn     func(*Record) error
		want   func(error) bool
	}{
		{"checksum", corrupt, Limits{}, nop, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "v2 block 1: block checksum mismatch")
		}},
		{"fn-error", data, Limits{}, func(*Record) error { return errStop }, func(err error) bool {
			return errors.Is(err, errStop)
		}},
		{"record-limit", data, Limits{MaxRecords: len(recs) / 2}, nop, func(err error) bool {
			return errors.Is(err, ErrLimit)
		}},
	}
	for _, c := range cases {
		vf, err := ParseV2(c.data, c.limits)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base := runtime.NumGoroutine()
		mDecodeWorkers.Set(0)
		_, err = vf.Each(false, 8, c.fn)
		if !c.want(err) {
			t.Errorf("%s: err %v", c.name, err)
		}
		if got := mDecodeWorkers.Value(); got != 8 {
			t.Errorf("%s: %d decode workers ran, want 8", c.name, got)
		}
		if !goroutinesBackTo(base) {
			t.Errorf("%s: %d goroutines after Each returned, %d before", c.name, runtime.NumGoroutine(), base)
		}
	}
}

// TestEachDropsInvalidBlockWhole pins that a v2 block reaches Each's fn
// whole or not at all. Block 1 of a raw four-record-block trace is
// patched so its third record is invalid, and its checksum is
// recomputed so only record decode can find the damage: under salvage
// fn sees none of block 1's records and the report itemizes exactly
// them, at one worker and at four; a strict Each fails at block 1.
func TestEachDropsInvalidBlockWhole(t *testing.T) {
	if size := reflect.TypeOf(v2rec{}).Size(); size > 32 {
		t.Errorf("v2rec is %d bytes, want at most 32", size)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(v2rec{})) {
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.Array, reflect.Struct:
			t.Errorf("v2rec.%s is a %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}

	stack := []trace.Frame{{Class: "app.View", Method: "paint"}}
	call := &Record{Type: RecCall, Time: 30, Thread: 1, Kind: trace.KindListener, Class: "app.View", Method: "click"}
	sample := &Record{Type: RecSample, Time: 30, Thread: 1, State: trace.StateRunnable, Stack: stack}
	cases := []struct {
		name  string
		third *Record
		// patch makes the record at payload[off:] invalid, keeping its length.
		patch func(t *testing.T, payload []byte, off int)
		cause string
	}{
		{"call-of-kind-gc", call, func(t *testing.T, payload []byte, off int) {
			c := &v2cur{data: payload, off: off + 1}
			c.varint() // time delta
			c.varint() // thread
			payload[c.off] = byte(trace.KindGC)
		}, "GC intervals use gcstart/gcend records"},
		{"stack-ref-beyond-table", sample, func(t *testing.T, payload []byte, off int) {
			c := &v2cur{data: payload, off: off + 1}
			c.varint() // time delta
			c.varint() // thread
			c.byte()   // state
			if payload[c.off] >= 0x80 {
				t.Fatalf("stack ref %#x is not a one-byte uvarint", payload[c.off])
			}
			payload[c.off] = 0x7f
		}, "stack ref 127 beyond table size 1"},
		{"unknown-record-type", call, func(t *testing.T, payload []byte, off int) {
			payload[off] = numRecTypes
		}, "unknown record type 7"},
	}
	for _, tc := range cases {
		recs := []*Record{
			{Type: RecThread, Thread: 1, Name: "AWT-EventQueue-0"},
			{Type: RecCall, Time: 10, Thread: 1, Kind: trace.KindDispatch, Class: "app.Main", Method: "run"},
			{Type: RecSample, Time: 11, Thread: 1, State: trace.StateWaiting, Stack: stack},
			{Type: RecReturn, Time: 12, Thread: 1},
			// Block 1.
			{Type: RecCall, Time: 20, Thread: 1, Kind: trace.KindDispatch, Class: "app.Main", Method: "run"},
			{Type: RecSample, Time: 25, Thread: 1, State: trace.StateRunnable, Stack: stack},
			tc.third,
			{Type: RecReturn, Time: 40, Thread: 1},
			// Block 2.
			{Type: RecGCStart, Time: 50, Major: true},
			{Type: RecGCEnd, Time: 55},
			{Type: RecEnd, Time: 60, Count: 3},
		}
		data := writeV2C(t, recs, 4, CompressionNone)
		v, err := ParseV2(data, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		b1 := v.Blocks()[1]
		// The raw block's frame: payload length, record count, base
		// time, CRC, payload.
		c := &v2cur{data: data[:b1.Offset+b1.Length], off: int(b1.Offset)}
		c.uvarint()
		c.uvarint()
		c.varint()
		crcOff := c.off
		payload := data[crcOff+4 : b1.Offset+b1.Length]
		pc := &v2cur{data: payload}
		last := trace.Time(0)
		for i := 0; i < 2; i++ {
			if err := v.d.decodeRecord(pc, &last, &v2rec{}); err != nil {
				t.Fatalf("%s: block 1 record %d: %v", tc.name, i, err)
			}
		}
		tc.patch(t, payload, pc.off)
		binary.LittleEndian.PutUint32(data[crcOff:], crc32.Checksum(payload, v2CRC))

		v, err = ParseV2(data, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(recs[:4]), recs[8:]...)
		for _, jobs := range []int{1, 4} {
			got, rep, err := collectEach(v, true, jobs)
			if err != nil {
				t.Fatalf("%s jobs=%d: salvage Each: %v", tc.name, jobs, err)
			}
			recordsEqual(t, got, want, fmt.Sprintf("%s jobs=%d", tc.name, jobs))
			if rep.RecordsKept != len(want) || rep.RecordsDropped != b1.Records ||
				rep.BytesSkipped != b1.Length || !strings.Contains(rep.FirstError, tc.cause) {
				t.Errorf("%s jobs=%d: report %+v, want %d kept, %d dropped, %d bytes skipped, cause %q",
					tc.name, jobs, rep, len(want), b1.Records, b1.Length, tc.cause)
			}
			_, err = v.Each(false, jobs, func(*Record) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "v2 block 1") || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("%s jobs=%d: strict Each error %v, want v2 block 1: …%s", tc.name, jobs, err, tc.cause)
			}
		}
	}
}
