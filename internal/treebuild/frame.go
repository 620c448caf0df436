package treebuild

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/trace"
)

// Suite frames are the one serialization of session suites that leave
// the process: the checkpoint store's payloads and a distributed study
// shard's state. Each session travels as a raw LiLa v2 trace:
//
//	suite   := uvarint(len(app)) app uvarint(nsessions) session*
//	session := uvarint(len(trace)) trace      (LiLa v2, blocks raw)
//
// A study frames the traces its simulator streamed into NewTraceWriter
// (AppendTraces); AppendSuite flattens and encodes a suite held in
// memory, the reference the streamed frames are tested against. Both
// give the same bytes unless the simulator materialized sub-threshold
// episodes, which a built session drops.
//
// Blocks stay raw because flate costs more time than the bytes it
// saves are worth on a local disk or a LAN. SplitSuite checks only the
// framing; each session then decodes strictly (DecodeSession): a v2
// parse or block checksum error, a build error, or a degraded build
// fails it, so a caller never receives a salvaged, silently different
// session.

var v2Raw = lila.WriteOptions{Format: lila.FormatV2, Compression: lila.CompressionNone}

// NewTraceWriter returns a writer of one session trace in the encoding
// suite frames carry, for producers that stream a session's records.
func NewTraceWriter(w io.Writer, h lila.Header) *lila.V2Writer {
	vw, _ := lila.NewV2Writer(w, h) // raw blocks, as v2Raw: never an error
	return vw
}

// AppendSuite appends suite's frame to dst, encoding each session.
func AppendSuite(dst []byte, suite *trace.Suite) ([]byte, error) {
	traces := make([][]byte, len(suite.Sessions))
	for i, s := range suite.Sessions {
		var buf bytes.Buffer
		if err := lila.WriteSessionOptions(&buf, v2Raw, s); err != nil {
			return nil, fmt.Errorf("treebuild: encoding %s session %d: %w", suite.App, s.ID, err)
		}
		traces[i] = buf.Bytes()
	}
	return AppendTraces(dst, suite.App, traces), nil
}

// AppendTraces appends to dst the frame of app's suite whose sessions
// are already encoded, as NewTraceWriter writes them.
func AppendTraces(dst []byte, app string, traces [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(app)))
	dst = append(dst, app...)
	dst = binary.AppendUvarint(dst, uint64(len(traces)))
	for _, t := range traces {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// SplitSuite splits the suite frame at the front of data into its app
// name and its sessions' v2 traces, undecoded, and returns the bytes
// after the frame. A frame that overruns data is an error before any
// session decodes.
func SplitSuite(data []byte) (app string, traces [][]byte, rest []byte, err error) {
	name, data, err := frameBytes(data)
	if err != nil {
		return "", nil, nil, fmt.Errorf("treebuild: suite frame app: %w", err)
	}
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) { // every session frame is at least one byte
		return "", nil, nil, fmt.Errorf("treebuild: suite frame %q: bad session count", name)
	}
	data = data[k:]
	traces = make([][]byte, n)
	for i := range traces {
		if traces[i], data, err = frameBytes(data); err != nil {
			return "", nil, nil, fmt.Errorf("treebuild: suite frame %q session %d: %w", name, i, err)
		}
	}
	return string(name), traces, data, nil
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

// DecodeSession rebuilds one session of a suite frame from its v2
// trace with o, refusing any damage instead of salvaging around it: a
// parse, checksum or build error or a degraded build is an error. With
// o.Episode set the build is in release mode and folds as it decodes.
func DecodeSession(v2 []byte, o Options) (*trace.Session, error) {
	v, err := lila.ParseV2(v2, lila.Limits{})
	if err != nil {
		return nil, err
	}
	s, diag, _, err := BuildV2(v, false, 1, o)
	if err != nil {
		return nil, err
	}
	if diag.Degraded() {
		return nil, fmt.Errorf("degraded rebuild (%d records skipped)", diag.SkippedRecords)
	}
	return s, nil
}
