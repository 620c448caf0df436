package lila

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"lagalyzer/internal/trace"
)

// v2TestRecords builds an interleaved multi-thread stream big enough
// to span many blocks at small BlockRecords settings: thread 1 (the
// GUI thread) works first, then thread 2 runs a long solo stretch, and
// thread 1 returns for a finale.
func v2TestRecords() []*Record {
	recs := []*Record{
		{Type: RecThread, Thread: 1, Name: "AWT-EventQueue-0"},
		{Type: RecThread, Thread: 2, Name: "Worker", Daemon: true},
	}
	t := trace.Time(1000)
	addPair := func(id trace.ThreadID, class, method string) {
		recs = append(recs,
			&Record{Type: RecCall, Time: t, Thread: id, Kind: trace.KindListener, Class: class, Method: method},
			&Record{Type: RecSample, Time: t + 1, Thread: id, State: trace.StateRunnable,
				Stack: []trace.Frame{{Class: class, Method: method}}},
			&Record{Type: RecReturn, Time: t + 2, Thread: id})
		t += 10
	}
	for i := 0; i < 8; i++ {
		addPair(1, "app.Button", "actionPerformed")
	}
	for i := 0; i < 40; i++ {
		addPair(2, "app.Worker", "run")
	}
	recs = append(recs,
		&Record{Type: RecGCStart, Time: t, Major: true},
		&Record{Type: RecGCEnd, Time: t + 5})
	t += 10
	for i := 0; i < 8; i++ {
		addPair(1, "app.Button", "actionPerformed")
	}
	recs = append(recs, &Record{Type: RecEnd, Time: t + 100, Count: 7})
	return recs
}

// writeV2 encodes recs with the given block granularity.
func writeV2(t *testing.T, recs []*Record, blockRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewV2WriterOptions(&buf, testHeader(), V2WriterOptions{BlockRecords: blockRecords})
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

func drainReader(t *testing.T, r Reader) []*Record {
	t.Helper()
	var recs []*Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func recordsEqual(t *testing.T, got, want []*Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

func TestV2MultiBlockRoundTrip(t *testing.T) {
	want := v2TestRecords()
	for _, blockRecords := range []int{1, 4, 7, 1 << 20} {
		data := writeV2(t, want, blockRecords)

		// Random-access path.
		v, err := ParseV2(data, Limits{})
		if err != nil {
			t.Fatalf("blockRecords=%d: ParseV2: %v", blockRecords, err)
		}
		if v.Header() != testHeader() {
			t.Fatalf("blockRecords=%d: header = %+v", blockRecords, v.Header())
		}
		wantBlocks := (len(want) + blockRecords - 1) / blockRecords
		if len(v.Blocks()) != wantBlocks {
			t.Fatalf("blockRecords=%d: %d blocks, want %d", blockRecords, len(v.Blocks()), wantBlocks)
		}
		got, rep, err := v.Records(nil, false)
		if err != nil {
			t.Fatalf("blockRecords=%d: Records: %v", blockRecords, err)
		}
		if rep != nil {
			t.Fatalf("blockRecords=%d: strict decode produced a salvage report", blockRecords)
		}
		recordsEqual(t, got, want, "random access")

		// Streaming path (sniffed; never touches the index).
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("blockRecords=%d: NewReader: %v", blockRecords, err)
		}
		recordsEqual(t, drainReader(t, r), want, "streaming")
	}
}

func TestV2OpenFileMmap(t *testing.T) {
	want := v2TestRecords()
	path := filepath.Join(t.TempDir(), "s.lila")
	if err := os.WriteFile(path, writeV2(t, want, 16), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := OpenV2File(f, Limits{})
	if err != nil {
		t.Fatalf("OpenV2File: %v", err)
	}
	got, _, err := v.Records(nil, false)
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	recordsEqual(t, got, want, "mmap")
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := v.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestV2SelectiveDecodeEquivalence pins the format-independence of
// RecordFilter: a filtered v2 Records read must yield exactly the
// records the same rule keeps over the full text stream.
func TestV2SelectiveDecodeEquivalence(t *testing.T) {
	all := v2TestRecords()
	filters := []*RecordFilter{
		{Threads: []trace.ThreadID{1}},
		{Threads: []trace.ThreadID{2}},
		{MinTime: 1100, MaxTime: 1300},
		{Threads: []trace.ThreadID{1}, MinTime: 1050, MaxTime: 1200},
		{MinTime: 4000}, // beyond the last timed record except the end
	}
	data := writeV2(t, all, 8)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	w, err := NewWriter(&text, FormatText, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range all {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for i, f := range filters {
		got, _, err := v.Records(f, false)
		if err != nil {
			t.Fatalf("filter %d: v2 Records: %v", i, err)
		}
		br, err := NewReader(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want := f.apply(drainReader(t, br))
		recordsEqual(t, got, want, "filtered")
		if len(got) == len(all) && !f.All() && i != 4 {
			t.Errorf("filter %d selected everything; test is vacuous", i)
		}
	}
}

// TestV2PerBlockSalvage corrupts one block and checks the loss is
// exactly that block — itemized counts, no resync scan, and correct
// absolute times after the gap thanks to per-block time bases.
func TestV2PerBlockSalvage(t *testing.T) {
	all := v2TestRecords()
	const blockRecords = 8
	data := writeV2(t, all, blockRecords)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	target := 3 // a middle block
	info := v.Blocks()[target]
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
		t.Fatal("salvage of a corrupt block reported no damage")
	}
	if rep.RecordsDropped != info.Records {
		t.Errorf("dropped %d records, want exactly the block's %d", rep.RecordsDropped, info.Records)
	}
	if rep.BytesSkipped != info.Length {
		t.Errorf("skipped %d bytes, want the block's %d", rep.BytesSkipped, info.Length)
	}
	want := append(append([]*Record{}, all[:target*blockRecords]...), all[(target+1)*blockRecords:]...)
	recordsEqual(t, got, want, "salvaged")
	if rep.RecordsKept != len(got) {
		t.Errorf("kept %d, yielded %d", rep.RecordsKept, len(got))
	}

	// The streaming salvage reader must reach the same records.
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
	recordsEqual(t, streamed, want, "streaming salvage")
	srep := SalvageOf(r)
	if srep == nil || srep.RecordsDropped != info.Records {
		t.Errorf("streaming salvage report = %+v, want %d dropped", srep, info.Records)
	}
}

// TestV2StreamSalvageEqualsFile pins the two v2 read paths to one
// result on damaged input: a salvage read through NewReaderOptions
// must keep exactly the records, produce exactly the report, and flush
// exactly the salvage metrics of a salvage read of the same bytes
// through ParseV2. A flipped frame byte is the case that used to split
// them: the file path drops the one block its index frames, while a
// stream that re-framed blocks by scanning lost everything from the
// flip on.
func TestV2StreamSalvageEqualsFile(t *testing.T) {
	all := v2TestRecords()
	data := writeV2(t, all, 8)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := v.Blocks()
	if len(blocks) != 22 || len(all) != 173 {
		t.Fatalf("%d blocks, %d records; the rows below assume 22 and 173", len(blocks), len(all))
	}
	flip := func(block int, off func(b V2BlockInfo) int64) []byte {
		bad := bytes.Clone(data)
		bad[off(blocks[block])] ^= 0xff
		return bad
	}
	frameStart := func(b V2BlockInfo) int64 { return b.Offset }
	lastPayload := func(b V2BlockInfo) int64 { return b.Offset + b.Length - 1 }
	for _, tc := range []struct {
		name string
		data []byte
		want []*Record
	}{
		{"frame start of block 1", flip(1, frameStart), append(slices.Clone(all[:8]), all[16:]...)},
		{"frame start of block 11", flip(11, frameStart), append(slices.Clone(all[:88]), all[96:]...)},
		{"payload byte of block 5", flip(5, lastPayload), append(slices.Clone(all[:40]), all[48:]...)},
		{"no end record", writeV2(t, all[:len(all)-1], 8), all[:len(all)-1]},
	} {
		salvaged := mRecordsSalvaged.Value()
		vb, err := ParseV2(tc.data, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		fileRecs, fileRep, err := vb.Records(nil, true)
		if err != nil {
			t.Fatalf("%s: file salvage: %v", tc.name, err)
		}
		fileSalvaged := mRecordsSalvaged.Value() - salvaged
		recordsEqual(t, fileRecs, tc.want, tc.name+" file")
		if !fileRep.Damaged() || fileSalvaged != int64(len(tc.want)) {
			t.Errorf("%s: file report %+v, %d records counted salvaged", tc.name, fileRep, fileSalvaged)
		}
		r, err := NewReaderOptions(bytes.NewReader(tc.data), ReaderOptions{Salvage: true})
		if err != nil {
			t.Fatalf("%s: stream salvage: %v", tc.name, err)
		}
		salvaged = mRecordsSalvaged.Value()
		recordsEqual(t, drainReader(t, r), fileRecs, tc.name+" stream")
		if rep := SalvageOf(r); !reflect.DeepEqual(rep, fileRep) {
			t.Errorf("%s: stream report %+v\nwant the file's %+v", tc.name, rep, fileRep)
		}
		if got := mRecordsSalvaged.Value() - salvaged; got != fileSalvaged {
			t.Errorf("%s: stream counted %d records salvaged, the file read %d", tc.name, got, fileSalvaged)
		}
	}
}

// TestV2IndexDamageFallsBackToScan destroys the footer and checks
// strict decode refuses while salvage re-frames every block from the
// self-describing headers.
func TestV2IndexDamageFallsBackToScan(t *testing.T) {
	all := v2TestRecords()
	data := writeV2(t, all, 8)
	for name, mutate := range map[string]func([]byte) []byte{
		"trailer":   func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"index":     func(b []byte) []byte { b[len(b)-v2TrailerLen-2] ^= 0xff; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-v2TrailerLen] },
	} {
		t.Run(name, func(t *testing.T) {
			bad := mutate(bytes.Clone(data))
			v, err := ParseV2(bad, Limits{})
			if err != nil {
				t.Fatalf("ParseV2: %v", err)
			}
			if _, _, err := v.Records(nil, false); err == nil {
				t.Error("strict decode accepted a damaged index")
			}
			if _, err := NewReader(bytes.NewReader(bad)); err == nil {
				t.Error("strict stream read accepted a damaged index")
			}
			got, rep, err := v.Records(nil, true)
			if err != nil {
				t.Fatalf("salvage Records: %v", err)
			}
			recordsEqual(t, got, all, "index-damage salvage")
			if rep.FirstError == "" {
				t.Error("index damage not noted in report")
			}
		})
	}
}

func TestV2TruncatedTail(t *testing.T) {
	all := v2TestRecords()
	data := writeV2(t, all, 8)
	cut := data[:len(data)*2/3]

	if r, err := NewReader(bytes.NewReader(cut)); err == nil {
		if _, err := io.ReadAll(readerAdapter{r}); err == nil {
			t.Error("strict streaming decode accepted a truncated trace")
		}
	}

	r, err := NewReaderOptions(bytes.NewReader(cut), ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage reader: %v", err)
	}
	n := 0
	for {
		if _, err := r.Read(); err != nil {
			break
		}
		n++
	}
	rep := SalvageOf(r)
	if rep == nil || !rep.TruncatedTail {
		t.Errorf("truncated v2 trace: report = %+v, want TruncatedTail", rep)
	}
	if n == 0 {
		t.Error("salvage recovered nothing from a 2/3 prefix")
	}
}

// TestV2TornTailItemized cuts a single-block and a multi-block trace
// inside a block: both salvage paths keep the blocks before the cut
// and itemize the torn one — every byte from its frame to the end of
// the data, and the records its header declares once that header is
// whole.
func TestV2TornTailItemized(t *testing.T) {
	all := v2TestRecords()
	for _, blockRecords := range []int{1 << 20, 8} {
		data := writeV2(t, all, blockRecords)
		v, err := ParseV2(data, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		blocks := v.Blocks()
		i := len(blocks) / 2
		torn := blocks[i]
		kept := 0
		for _, b := range blocks[:i] {
			kept += b.Records
		}
		for _, tc := range []struct {
			name    string
			cut     int64 // bytes of the torn block left
			dropped int
		}{
			{"payload", torn.Length / 2, torn.Records},
			{"header", 1, 0},
		} {
			label := fmt.Sprintf("%d blocks, torn %s", len(blocks), tc.name)
			cut := data[:torn.Offset+tc.cut]
			check := func(path string, got []*Record, rep *SalvageReport) {
				t.Helper()
				recordsEqual(t, got, all[:kept], label+" "+path)
				if rep == nil || rep.RecordsDropped != tc.dropped || rep.BytesSkipped != tc.cut || !rep.TruncatedTail {
					t.Errorf("%s %s: report %+v, want %d dropped, %d skipped, truncated tail",
						label, path, rep, tc.dropped, tc.cut)
				}
			}
			vc, err := ParseV2(cut, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := vc.Records(nil, true)
			if err != nil {
				t.Fatalf("%s: salvage Records: %v", label, err)
			}
			check("random access", got, rep)
			r, err := NewReaderOptions(bytes.NewReader(cut), ReaderOptions{Salvage: true})
			if err != nil {
				t.Fatal(err)
			}
			check("stream", drainReader(t, r), SalvageOf(r))
		}
	}
}

// TestV2TableDamageKeepsSession breaks a stack-table reference: no
// block can decode, so strict reads fail, while salvage still opens the
// session from its header and itemizes everything after it — every
// byte, and every record the intact footer index declares.
func TestV2TableDamageKeepsSession(t *testing.T) {
	all := v2TestRecords()
	data := writeV2(t, all, 8)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[v.Blocks()[0].Offset-1] = 0x7f // the last frame's method ref, now dangling
	d, err := parseV2Prefix(bad, Limits{})
	if err == nil || d == nil {
		t.Fatalf("parseV2Prefix = %v, %v; want the header and a table error", d, err)
	}
	wantSkip := int64(len(bad) - d.blocksStart)

	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("strict stream read accepted a damaged stack table")
	}
	vb, err := ParseV2(bad, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vb.Records(nil, false); err == nil {
		t.Error("strict decode accepted a damaged stack table")
	}
	got, rep, err := vb.Records(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderOptions(bytes.NewReader(bad), ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage stream read: %v", err)
	}
	if r.Header() != testHeader() {
		t.Errorf("salvaged header = %+v", r.Header())
	}
	for path, res := range map[string]struct {
		recs []*Record
		rep  *SalvageReport
	}{"random access": {got, rep}, "stream": {drainReader(t, r), SalvageOf(r)}} {
		if len(res.recs) != 0 || res.rep.RecordsDropped != len(all) || res.rep.BytesSkipped != wantSkip ||
			!strings.Contains(res.rep.FirstError, "stack table") {
			t.Errorf("%s: %d records, report %+v; want none, %d dropped, %d skipped, the table error",
				path, len(res.recs), res.rep, len(all), wantSkip)
		}
	}
}

// TestV2SalvageKeepsPrefixOnReadError cuts the input stream with a
// transport error mid-block: salvage decodes the blocks that arrived,
// notes the error, and marks the tail truncated; strict mode fails.
func TestV2SalvageKeepsPrefixOnReadError(t *testing.T) {
	all := v2TestRecords()
	data := writeV2(t, all, 8)
	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b := v.Blocks()[2]
	reset := errors.New("connection reset by peer")
	body := func() io.Reader {
		return io.MultiReader(bytes.NewReader(data[:b.Offset+b.Length/2]), iotest.ErrReader(reset))
	}
	if _, err := NewReaderOptions(body(), ReaderOptions{}); !errors.Is(err, reset) {
		t.Errorf("strict read of a cut stream: err = %v, want the transport error", err)
	}
	r, err := NewReaderOptions(body(), ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage reader: %v", err)
	}
	recordsEqual(t, drainReader(t, r), all[:16], "salvaged prefix")
	rep := SalvageOf(r)
	if !rep.TruncatedTail || !strings.Contains(rep.FirstError, reset.Error()) || rep.RecordsDropped != b.Records {
		t.Errorf("report %+v, want truncated tail, the transport error first, and the torn block's %d records",
			rep, b.Records)
	}
}

// readerAdapter exposes a lila.Reader as an io.Reader of record
// stringifications, just to drive it to EOF-or-error.
type readerAdapter struct{ r Reader }

func (a readerAdapter) Read(p []byte) (int, error) {
	if _, err := a.r.Read(); err != nil {
		return 0, err
	}
	if len(p) > 0 {
		p[0] = '.'
		return 1, nil
	}
	return 0, nil
}

// TestUnsupportedVersionBothDirections covers every reader × wrong
// version pairing: each must report ErrUnsupportedVersion, not a
// garbled decode or a salvage spiral. v1 is the retired stream binary
// format; only its magic matters.
func TestUnsupportedVersionBothDirections(t *testing.T) {
	v2Data := writeV2(t, v2TestRecords(), 8)
	v1Data := []byte("LILA\x01\x08Test App\x04\x02\x06\x00\x00\x00")
	future := []byte("LILA\x07whatever")

	cases := []struct {
		name string
		err  func() error
	}{
		{"v2 parser on v1", func() error {
			_, err := ParseV2(v1Data, Limits{})
			return err
		}},
		{"v2 stream reader on v1", func() error {
			_, err := NewV2Reader(bytes.NewReader(v1Data), ReaderOptions{})
			return err
		}},
		{"sniffer on v1", func() error {
			_, err := NewReader(bytes.NewReader(v1Data))
			return err
		}},
		{"salvage sniffer on v1", func() error {
			_, err := NewReaderOptions(bytes.NewReader(v1Data), ReaderOptions{Salvage: true})
			return err
		}},
		{"sniffer on future version", func() error {
			_, err := NewReader(bytes.NewReader(future))
			return err
		}},
		{"salvage sniffer on future version", func() error {
			_, err := NewReaderOptions(bytes.NewReader(future), ReaderOptions{Salvage: true})
			return err
		}},
		{"text reader on future text version", func() error {
			_, err := NewReader(bytes.NewReader([]byte("#lila text 9\n")))
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("%s: error %q does not wrap ErrUnsupportedVersion", tc.name, err)
		}
	}

	// The sniffing entry point must route v2 to its reader rather than
	// erroring.
	r, err := NewReader(bytes.NewReader(v2Data))
	if err != nil {
		t.Fatalf("sniffed reader: %v", err)
	}
	drainReader(t, r)
}

// TestV2RejectsCompressedFlag pins the index-entry contract around the
// compression flag: a compressed entry must carry its inflated length,
// so a forged flag on a raw block's entry (with nothing following) is
// treated as index damage — the reader must not misdecode the payload,
// and salvage must still recover everything from the self-framing
// block headers, whose own raw/compressed discipline is authoritative.
func TestV2RejectsCompressedFlag(t *testing.T) {
	// Single block, so the index's final byte is its flags uvarint.
	data := writeV2(t, v2TestRecords(), 1<<20)
	tr := data[len(data)-v2TrailerLen:]
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	indexLen := binary.LittleEndian.Uint32(tr[8:12])
	index := data[indexOff : indexOff+uint64(indexLen)]
	index[len(index)-1] |= v2FlagCompressed
	binary.LittleEndian.PutUint32(tr[12:16], crc32.Checksum(index, v2CRC))

	v, err := ParseV2(data, Limits{})
	if err != nil {
		t.Fatalf("ParseV2: %v", err)
	}
	if v.indexErr == nil {
		t.Fatal("compressed flag accepted as a valid index")
	}
	if _, _, err := v.Records(nil, false); err == nil {
		t.Error("strict decode proceeded past a compressed-flag index")
	}
	// Salvage still recovers the records via the header scan.
	got, _, err := v.Records(nil, true)
	if err != nil {
		t.Fatalf("salvage Records: %v", err)
	}
	recordsEqual(t, got, v2TestRecords(), "compressed-flag fallback")
}
