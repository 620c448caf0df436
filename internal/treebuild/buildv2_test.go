package treebuild_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"lagalyzer/internal/apps"
	"lagalyzer/internal/lila"
	"lagalyzer/internal/obs"
	"lagalyzer/internal/sim"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// v2Trace simulates one session of p and writes its record stream as
// LiLa v2 in 256-record blocks, so every session spans many blocks and
// a streamed build recycles record slots many times over.
func v2Trace(t testing.TB, p *sim.Profile, seconds float64, comp lila.Compression) ([]byte, []*lila.Record) {
	t.Helper()
	recs, h, err := sim.Records(sim.Config{Profile: p, Seed: 5, SessionSeconds: seconds})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := lila.NewV2WriterOptions(&buf, h, lila.V2WriterOptions{BlockRecords: 256, Compression: comp})
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
	return buf.Bytes(), recs
}

// built is everything a build returns, in comparable form: the session
// as its v2 encoding, diagnostics, salvage report, and error text.
type built struct {
	session []byte
	diag    *treebuild.Diagnostics
	rep     *lila.SalvageReport
	err     string
}

func pack(t *testing.T, s *trace.Session, diag *treebuild.Diagnostics, rep *lila.SalvageReport, err error) built {
	t.Helper()
	b := built{diag: diag, rep: rep}
	if err != nil {
		b.err = err.Error()
		return b
	}
	var buf bytes.Buffer
	if err := lila.WriteSessionOptions(&buf, lila.WriteOptions{Format: lila.FormatV2}, s); err != nil {
		t.Fatal(err)
	}
	b.session = buf.Bytes()
	return b
}

// referenceBuild is the collect-then-build load: Records, then
// BuildRecordsOptions over the whole record slice.
func referenceBuild(t *testing.T, data []byte, salvage bool) built {
	t.Helper()
	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := v.Records(nil, salvage)
	if err != nil {
		return pack(t, nil, nil, rep, err)
	}
	s, diag, err := treebuild.BuildRecordsOptions(v.Header(), recs, treebuild.Options{Lenient: salvage})
	return pack(t, s, diag, rep, err)
}

func streamedBuild(t *testing.T, data []byte, salvage bool, jobs int) built {
	t.Helper()
	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	s, diag, rep, err := treebuild.BuildV2(v, jobs, treebuild.Options{Lenient: salvage})
	return pack(t, s, diag, rep, err)
}

func sameBuild(t *testing.T, label string, got, want built) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("%s: error %q, want %q", label, got.err, want.err)
	}
	if !bytes.Equal(got.session, want.session) {
		t.Errorf("%s: session differs from the collect-then-build session", label)
	}
	if !reflect.DeepEqual(got.diag, want.diag) {
		t.Errorf("%s: diagnostics %+v, want %+v", label, got.diag, want.diag)
	}
	if !reflect.DeepEqual(got.rep, want.rep) {
		t.Errorf("%s: salvage report %+v, want %+v", label, got.rep, want.rep)
	}
}

// damaged returns the three damage cases for a multi-block v2 trace:
// a byte flipped mid-block, the file cut two thirds in (index and
// tail gone), and a byte flipped inside the footer index.
func damaged(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := v.Blocks()
	if len(blocks) < 4 {
		t.Fatalf("only %d blocks; the damage cases need a multi-block trace", len(blocks))
	}
	flip := bytes.Clone(data)
	mid := blocks[len(blocks)/2]
	flip[mid.Offset+mid.Length/2] ^= 0x40
	index := bytes.Clone(data)
	indexOff := binary.LittleEndian.Uint64(data[len(data)-24:])
	index[indexOff+1] ^= 0xff
	return map[string][]byte{
		"block-flip":     flip,
		"truncated-tail": bytes.Clone(data[:len(data)*2/3]),
		"damaged-index":  index,
	}
}

// TestBuildV2MatchesBuildRecords pins the streamed build to the
// collect-then-build reference: for one session per catalog app, raw
// and flate, at 1, 2, and 8 decode workers, clean and under every
// damage case (salvage and strict), the session bytes,
// diagnostics, salvage report, and error text must be identical. The
// streamed build overwrites each block's record slots once the block
// is fed, so a builder that kept a *Record would diverge here.
func TestBuildV2MatchesBuildRecords(t *testing.T) {
	for _, p := range apps.Catalog() {
		for _, comp := range []lila.Compression{lila.CompressionNone, lila.CompressionFlate} {
			data, _ := v2Trace(t, p, 30, comp)
			want := referenceBuild(t, data, false)
			if want.err != "" {
				t.Fatalf("%s/%v: reference build failed: %s", p.Name, comp, want.err)
			}
			for _, jobs := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/%v/jobs=%d", p.Name, comp, jobs)
				sameBuild(t, label, streamedBuild(t, data, false, jobs), want)
			}
			for dname, bad := range damaged(t, data) {
				for _, salvage := range []bool{false, true} {
					want := referenceBuild(t, bad, salvage)
					for _, jobs := range []int{1, 2, 8} {
						label := fmt.Sprintf("%s/%v/%s/salvage=%v/jobs=%d", p.Name, comp, dname, salvage, jobs)
						sameBuild(t, label, streamedBuild(t, bad, salvage, jobs), want)
					}
				}
			}
		}
	}
}

// TestBuildV2MemoryGuardStopsDecode checks that the memory guard trips
// while the file is still being decoded: an over-budget BuildV2 fails
// with ErrSessionTooLarge having inflated fewer blocks than the file
// holds, at one decode worker and with read-ahead.
func TestBuildV2MemoryGuardStopsDecode(t *testing.T) {
	data, _ := v2Trace(t, apps.GanttProject(), 120, lila.CompressionFlate)
	v, err := lila.ParseV2(data, lila.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	compressed := 0
	for _, b := range v.Blocks() {
		if b.Compressed() {
			compressed++
		}
	}
	if compressed < 64 {
		t.Fatalf("only %d compressed blocks; the guard test needs a long file", compressed)
	}
	inflated := func() int64 { return obs.Default().Snapshot().Counters["lila_blocks_inflated_total"] }
	o := treebuild.Options{Limits: lila.Limits{MaxSessionBytes: 1 << 20}}
	for _, jobs := range []int{1, 8} {
		before := inflated()
		_, _, _, err := treebuild.BuildV2(v, jobs, o)
		if !errors.Is(err, treebuild.ErrSessionTooLarge) {
			t.Fatalf("jobs=%d: err %v, want ErrSessionTooLarge", jobs, err)
		}
		if n := inflated() - before; n >= int64(compressed) {
			t.Errorf("jobs=%d: inflated %d of %d blocks before the guard stopped the decode", jobs, n, compressed)
		}
	}
}
