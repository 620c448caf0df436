package lila

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
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
