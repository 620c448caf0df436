package lila

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"lagalyzer/internal/trace"
)

// writeV2C encodes recs at the given block granularity and compression.
func writeV2C(t *testing.T, recs []*Record, blockRecords int, c Compression) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewV2WriterOptions(&buf, testHeader(), V2WriterOptions{BlockRecords: blockRecords, Compression: c})
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
	return buf.Bytes()
}

// v2LongRecords builds a stream long and repetitive enough that every
// reasonably sized block deflates well below its raw payload size.
func v2LongRecords(pairs int) []*Record {
	recs := []*Record{
		{Type: RecThread, Thread: 1, Name: "AWT-EventQueue-0"},
		{Type: RecThread, Thread: 2, Name: "Worker", Daemon: true},
	}
	t := trace.Time(1000)
	for i := 0; i < pairs; i++ {
		id := trace.ThreadID(1 + i/(pairs/2+1)) // first half GUI, second half worker
		cls := fmt.Sprintf("app.Widget%d", i%3)
		recs = append(recs,
			&Record{Type: RecCall, Time: t, Thread: id, Kind: trace.KindListener, Class: cls, Method: "actionPerformed"},
			&Record{Type: RecSample, Time: t + 1, Thread: id, State: trace.StateRunnable,
				Stack: []trace.Frame{{Class: cls, Method: "actionPerformed"}, {Class: "java.awt.EventQueue", Method: "dispatchEvent"}}},
			&Record{Type: RecReturn, Time: t + 2, Thread: id})
		t += 10
	}
	recs = append(recs, &Record{Type: RecEnd, Time: t + 100, Count: 9})
	return recs
}

// TestV2CompressedRoundTrip pins that flate-compressed traces decode
// byte-identically to their record stream on both the random-access and
// streaming paths, across block granularities (including single-record
// blocks, where flate loses and the writer keeps blocks raw).
func TestV2CompressedRoundTrip(t *testing.T) {
	want := v2TestRecords()
	for _, blockRecords := range []int{1, 4, 7, 64, 1 << 20} {
		data := writeV2C(t, want, blockRecords, CompressionFlate)

		v, err := ParseV2(data, Limits{})
		if err != nil {
			t.Fatalf("blockRecords=%d: ParseV2: %v", blockRecords, err)
		}
		got, rep, err := v.Records(nil, false)
		if err != nil {
			t.Fatalf("blockRecords=%d: Records: %v", blockRecords, err)
		}
		if rep != nil {
			t.Fatalf("blockRecords=%d: strict decode produced a salvage report", blockRecords)
		}
		recordsEqual(t, got, want, fmt.Sprintf("compressed random access (blockRecords=%d)", blockRecords))

		// Streaming path re-frames from the self-describing headers.
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("blockRecords=%d: NewReader: %v", blockRecords, err)
		}
		recordsEqual(t, drainReader(t, r), want, fmt.Sprintf("compressed streaming (blockRecords=%d)", blockRecords))

		// Large blocks must actually end up compressed and smaller.
		if blockRecords >= 64 {
			anyCompressed := false
			for _, b := range v.Blocks() {
				if b.Compressed() {
					anyCompressed = true
				}
			}
			if !anyCompressed {
				t.Errorf("blockRecords=%d: no block came out compressed", blockRecords)
			}
			raw := writeV2(t, want, blockRecords)
			if len(data) >= len(raw) {
				t.Errorf("blockRecords=%d: compressed file %d bytes >= raw %d", blockRecords, len(data), len(raw))
			}
		}
	}
}

// TestV2CompressionRatio is the acceptance-criterion check: on a long
// repetitive trace at the default block size, flate must at least halve
// the file.
func TestV2CompressionRatio(t *testing.T) {
	recs := v2LongRecords(4000)
	raw := writeV2C(t, recs, 0, CompressionNone)
	comp := writeV2C(t, recs, 0, CompressionFlate)
	if len(comp)*2 > len(raw) {
		t.Errorf("compression ratio %.2fx < 2x (raw %d, compressed %d bytes)",
			float64(len(raw))/float64(len(comp)), len(raw), len(comp))
	}
	// Compression must not perturb the records.
	v, err := ParseV2(comp, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Records(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, got, recs, "ratio corpus")
}

// TestV2UncompressedOptionByteIdentical pins that CompressionNone (and
// the zero options) writes exactly the v2.0 byte stream — goldens and
// the deterministic selftrace encoding depend on it.
func TestV2UncompressedOptionByteIdentical(t *testing.T) {
	recs := v2TestRecords()
	a := writeV2(t, recs, 8)
	b := writeV2C(t, recs, 8, CompressionNone)
	if !bytes.Equal(a, b) {
		t.Fatal("CompressionNone output differs from the v2.0 writer")
	}
}

// TestV2CompressedSalvage corrupts one compressed block and checks the
// loss is exactly that block: itemized counts, no resync, and correct
// absolute times after the gap — the CRC is over the stored bytes, so
// damage is rejected before any inflation is attempted.
func TestV2CompressedSalvage(t *testing.T) {
	all := v2LongRecords(200)
	const blockRecords = 64
	data := writeV2C(t, all, blockRecords, CompressionFlate)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a middle block and require it to really be compressed, so
	// the corruption lands on a deflate payload.
	target := len(v.Blocks()) / 2
	info := v.Blocks()[target]
	if !info.Compressed() {
		t.Fatalf("block %d not compressed; corpus too small for the test", target)
	}
	bad := bytes.Clone(data)
	bad[info.Offset+info.Length/2] ^= 0x40

	vb, err := ParseV2(bad, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := vb.Records(nil, true)
	if err != nil {
		t.Fatalf("salvage Records: %v", err)
	}
	if rep == nil || !rep.Damaged() {
		t.Fatal("salvage of a corrupt compressed block reported no damage")
	}
	if rep.RecordsDropped != info.Records {
		t.Errorf("dropped %d records, want exactly the block's %d", rep.RecordsDropped, info.Records)
	}
	if rep.BytesSkipped != info.Length {
		t.Errorf("skipped %d bytes, want the block's %d", rep.BytesSkipped, info.Length)
	}
	want := append(append([]*Record{}, all[:target*blockRecords]...), all[(target+1)*blockRecords:]...)
	recordsEqual(t, got, want, "compressed salvage")

	// The streaming salvage reader must agree record for record.
	r, err := NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*Record
	for {
		rec, err := r.Read()
		if err != nil {
			break
		}
		streamed = append(streamed, rec)
	}
	recordsEqual(t, streamed, want, "compressed streaming salvage")
	srep := SalvageOf(r)
	if srep == nil || srep.RecordsDropped != info.Records {
		t.Errorf("streaming salvage report = %+v, want %d dropped", srep, info.Records)
	}
}

// TestV2InflateFailures reaches the inflate step of a v2 read, which
// TestV2CompressedSalvage cannot: one compressed block is patched in
// place so that its checksum still holds (recomputed where the stored
// bytes change) but inflating it fails. The stream is cut short, its
// declared inflated length is one too large or one too small, or its
// Huffman header is oversubscribed. Each at one worker and at four,
// Records and the V2Reader must all lose exactly that block under
// salvage and fail at it when strict.
func TestV2InflateFailures(t *testing.T) {
	all := v2LongRecords(1000)
	const blockRecords = 512
	data := writeV2C(t, all, blockRecords, CompressionFlate)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	target := len(v.Blocks()) / 2
	info := v.Blocks()[target]
	if !info.Compressed() {
		t.Fatalf("block %d not compressed; corpus too small for the test", target)
	}
	// The compressed frame: payload length, the 0 escape, record
	// count, inflated length, base time, CRC, stored bytes.
	c := &v2cur{data: data[:info.Offset+info.Length], off: int(info.Offset)}
	plen, _ := c.uvarint()
	c.uvarint()
	c.uvarint()
	rawLenOff := c.off
	rawLen, _ := c.uvarint()
	c.varint()
	crcOff := c.off
	storedOff := crcOff + 4
	stored := data[storedOff : storedOff+int(plen)]
	if stored[0]>>1&3 != 2 {
		t.Fatalf("block %d starts with block type %d, want a dynamic block", target, stored[0]>>1&3)
	}
	payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(stored)))
	if err != nil || len(payload) != int(rawLen) || rawLen > 0xffff {
		t.Fatalf("block %d inflates to %d bytes (%v), want %d < 65536", target, len(payload), err, rawLen)
	}

	setRawLen := func(n uint64) func([]byte) {
		return func(d []byte) {
			if binary.PutUvarint(d[rawLenOff:], n) != binary.PutUvarint(make([]byte, 10), rawLen) {
				t.Fatalf("inflated length %d does not fit the frame in place", n)
			}
		}
	}
	cases := []struct {
		name  string
		patch func(d []byte) // d is the whole file
		cause string
	}{
		{"truncated-stream", func(d []byte) {
			// A final stored block that declares the whole payload
			// but holds only as much of it as the frame has room for.
			s := d[storedOff : storedOff+int(plen)]
			s[0] = 1
			binary.LittleEndian.PutUint16(s[1:], uint16(rawLen))
			binary.LittleEndian.PutUint16(s[3:], ^uint16(rawLen))
			copy(s[5:], payload)
		}, "inflating block payload: unexpected EOF"},
		{"raw-len-one-too-large", setRawLen(rawLen + 1), "inflating block payload: unexpected EOF"},
		{"raw-len-one-too-small", setRawLen(rawLen - 1), fmt.Sprintf("inflated payload exceeds declared length %d", rawLen-1)},
		{"oversubscribed-header", func(d []byte) {
			// The first three code length code lengths (for the
			// repeat symbols 16, 17 and 18) become 1 bit each: three
			// one-bit codes.
			s := d[storedOff:]
			for k := 0; k < 3; k++ {
				for b := 0; b < 3; b++ {
					pos := 17 + 3*k + b
					s[pos/8] &^= 1 << (pos % 8)
					if b == 0 {
						s[pos/8] |= 1 << (pos % 8)
					}
				}
			}
		}, "inflating block payload: "},
	}
	want := append(append([]*Record{}, all[:target*blockRecords]...), all[(target+1)*blockRecords:]...)
	blockErr := fmt.Sprintf("v2 block %d: ", target)
	for _, tc := range cases {
		bad := bytes.Clone(data)
		tc.patch(bad)
		binary.LittleEndian.PutUint32(bad[crcOff:], crc32.Checksum(bad[storedOff:storedOff+int(plen)], v2CRC))
		vb, err := ParseV2(bad, Limits{})
		if err != nil {
			t.Fatalf("%s: ParseV2: %v", tc.name, err)
		}
		checkSalvage := func(label string, got []*Record, rep *SalvageReport, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: salvage read: %v", tc.name, label, err)
			}
			recordsEqual(t, got, want, tc.name+" "+label)
			if rep == nil || rep.RecordsKept != len(want) || rep.RecordsDropped != info.Records ||
				rep.BytesSkipped != info.Length || !strings.Contains(rep.FirstError, blockErr+tc.cause) {
				t.Errorf("%s %s: report %+v, want %d kept, %d dropped, %d bytes skipped, cause %q",
					tc.name, label, rep, len(want), info.Records, info.Length, blockErr+tc.cause)
			}
		}
		checkStrict := func(label string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), blockErr+tc.cause) {
				t.Errorf("%s %s: strict read error %v, want %q", tc.name, label, err, blockErr+tc.cause)
			}
		}
		for _, jobs := range []int{1, 4} {
			got, rep, err := collectEach(vb, true, jobs)
			checkSalvage(fmt.Sprintf("Each jobs=%d", jobs), got, rep, err)
			_, err = vb.Each(false, jobs, func(*Record) error { return nil })
			checkStrict(fmt.Sprintf("Each jobs=%d", jobs), err)
		}
		got, rep, err := vb.Records(nil, true)
		checkSalvage("Records", got, rep, err)
		_, _, err = vb.Records(nil, false)
		checkStrict("Records", err)

		r, err := NewV2Reader(bytes.NewReader(bad), ReaderOptions{Salvage: true})
		if err != nil {
			t.Fatal(err)
		}
		checkSalvage("V2Reader", drainReader(t, r), r.Salvage(), nil)
		r, err = NewV2Reader(bytes.NewReader(bad), ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = r.Read()
		}
		checkStrict("V2Reader", err)
	}
}

// TestV2CompressedIndexSalvageScan destroys the footer of a compressed
// file: strict decode must refuse, while the salvage scan re-frames
// every block — including deflate blocks via the count==0 escape in the
// self-describing headers.
func TestV2CompressedIndexSalvageScan(t *testing.T) {
	all := v2LongRecords(200)
	data := writeV2C(t, all, 64, CompressionFlate)
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xff // trailer CRC

	v, err := ParseV2(bad, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Records(nil, false); err == nil {
		t.Error("strict decode accepted a damaged index")
	}
	got, rep, err := v.Records(nil, true)
	if err != nil {
		t.Fatalf("salvage Records: %v", err)
	}
	recordsEqual(t, got, all, "compressed index-damage salvage")
	if rep.FirstError == "" {
		t.Error("index damage not noted in report")
	}
}

// TestV2ParallelDecodeDeterminism is the worker-count pin: records,
// salvage reports, and strict errors that Each yields at jobs 1, 2,
// and 8 must be byte-identical to the collecting Records, for raw and
// compressed files, clean and damaged.
func TestV2ParallelDecodeDeterminism(t *testing.T) {
	all := v2TestRecords()
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		data := writeV2C(t, all, 8, comp)
		bad := bytes.Clone(data)
		v, err := ParseV2(data, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		mid := v.Blocks()[len(v.Blocks())/2]
		bad[mid.Offset+mid.Length/2] ^= 0x40

		for name, input := range map[string][]byte{"clean": data, "damaged": bad} {
			vf, err := ParseV2(input, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			for _, salvage := range []bool{false, true} {
				label := fmt.Sprintf("%v/%s/salvage=%v", comp, name, salvage)
				wantRecs, wantRep, wantErr := vf.Records(nil, salvage)
				for _, jobs := range []int{1, 2, 8} {
					gotRecs, gotRep, gotErr := collectEach(vf, salvage, jobs)
					if (gotErr == nil) != (wantErr == nil) ||
						(gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Errorf("%s jobs=%d: err %v, want %v", label, jobs, gotErr, wantErr)
						continue
					}
					if !reflect.DeepEqual(gotRecs, wantRecs) {
						t.Errorf("%s jobs=%d: records diverge from Records", label, jobs)
					}
					if !reflect.DeepEqual(gotRep, wantRep) {
						t.Errorf("%s jobs=%d: report %+v, want %+v", label, jobs, gotRep, wantRep)
					}
				}
			}
		}
	}
}

// collectEach drives Each and copies out every record it yields, since
// a record is only valid inside fn. Its results follow Records'.
func collectEach(v *V2File, salvage bool, jobs int) ([]*Record, *SalvageReport, error) {
	var out []*Record
	rep, err := v.Each(salvage, jobs, func(rec *Record) error {
		cp := *rec
		out = append(out, &cp)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}
