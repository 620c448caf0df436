package treebuild

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// Suite frames are the one serialization of in-memory session suites
// that leave the process: the checkpoint store's payloads and the
// distributed shard state. Each session travels as the raw LiLa v2
// trace lila.WriteSessionOptions writes for it:
//
//	suite   := uvarint(len(app)) app uvarint(nsessions) session*
//	session := uvarint(len(trace)) trace      (LiLa v2, blocks raw)
//
// Blocks stay raw because flate costs more time than the bytes it
// saves are worth on a local disk or a LAN. Decoding is strict: a v2
// parse or block checksum error, a build error, a degraded build, or
// a frame that overruns the data fails the whole suite, so a caller
// never receives a salvaged, silently different suite.

var v2Raw = lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionNone}

// AppendSuite appends suite's frame to dst.
func AppendSuite(dst []byte, suite *trace.Suite) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(suite.App)))
	dst = append(dst, suite.App...)
	dst = binary.AppendUvarint(dst, uint64(len(suite.Sessions)))
	var buf bytes.Buffer
	for _, s := range suite.Sessions {
		buf.Reset()
		if err := lila.WriteSessionOptions(&buf, v2Raw, s); err != nil {
			return nil, fmt.Errorf("treebuild: encoding %s session %d: %w", suite.App, s.ID, err)
		}
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		dst = append(dst, buf.Bytes()...)
	}
	return dst, nil
}

// ReadSuite decodes the suite frame at the front of data and returns
// the suite and the bytes after the frame.
func ReadSuite(data []byte) (*trace.Suite, []byte, error) {
	app, data, err := frameBytes(data)
	if err != nil {
		return nil, nil, fmt.Errorf("treebuild: suite frame app: %w", err)
	}
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) { // every session frame is at least one byte
		return nil, nil, fmt.Errorf("treebuild: suite frame %q: bad session count", app)
	}
	data = data[k:]
	suite := &trace.Suite{App: string(app), Sessions: make([]*trace.Session, 0, n)}
	for i := uint64(0); i < n; i++ {
		var v2 []byte
		if v2, data, err = frameBytes(data); err != nil {
			return nil, nil, fmt.Errorf("treebuild: suite frame %q session %d: %w", app, i, err)
		}
		s, err := decodeStrict(v2)
		if err != nil {
			return nil, nil, fmt.Errorf("treebuild: suite frame %q session %d: %w", app, i, err)
		}
		suite.Sessions = append(suite.Sessions, s)
	}
	return suite, data, nil
}

// frameBytes splits a uvarint length-prefixed byte string off data.
func frameBytes(data []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, fmt.Errorf("frame length overruns %d bytes", len(data))
	}
	data = data[k:]
	return data[:n], data[n:], nil
}

// decodeStrict rebuilds one session from a v2 trace, refusing any
// damage instead of salvaging around it.
func decodeStrict(v2 []byte) (*trace.Session, error) {
	v, err := lila.ParseV2(v2, lila.Limits{})
	if err != nil {
		return nil, err
	}
	recs, _, err := v.Records(nil, false)
	if err != nil {
		return nil, err
	}
	s, diag, err := BuildRecords(v.Header(), recs)
	if err != nil {
		return nil, err
	}
	if diag.Degraded() {
		return nil, fmt.Errorf("degraded rebuild (%d records skipped)", diag.SkippedRecords)
	}
	return s, nil
}
