package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"lagalyzer/internal/report"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// Shard partial state: the wire form a worker lagd returns for a
// "shard" job, consumed by the distributed coordinator
// (internal/dist). The payload is the mergeable part of a study — the
// session suites plus the shard's health ledger — NOT the derived
// analysis: the engine re-derives analysis deterministically at the
// coordinator, which is what makes a distributed merge byte-identical
// to a single-node run (the same argument that makes checkpoint
// resume byte-identical).
//
// Framing is paranoid by design, because this payload crosses a
// network that the fault-injection suite is allowed to damage:
//
//	8 bytes  magic "LAGSHRD2"
//	32 bytes SHA-256 of the payload
//	N bytes  payload := uvarint(nsuites) suite* health
//	         suite   := treebuild suite frame (sessions as raw LiLa v2)
//	         health  := gob of the Health ledger, to the end
//
// The suites travel in the checkpoint store's encoding and decode
// through the same strict path (treebuild.ReadSuite). Any truncation,
// reset, or bit flip — in the header, checksum, or payload — surfaces
// as ErrBadShardState, never as a silently wrong merge. The
// coordinator treats ErrBadShardState as retryable wire damage.

// shardStateMagic identifies (and versions) the shard-state framing.
const shardStateMagic = "LAGSHRD2"

// ErrBadShardState marks a shard-state payload that failed its framing
// or checksum validation: the bytes on the wire are not the bytes the
// worker produced.
var ErrBadShardState = errors.New("serve: shard state damaged in transit")

// ShardState is one worker's contribution to a distributed study.
type ShardState struct {
	// Suites are the session suites the shard produced (simulated apps
	// or loaded trace files), in the shard's deterministic order:
	// profile order for study shards, sorted-app order for trace
	// shards.
	Suites []*trace.Suite
	// Health itemizes everything the shard lost or worked around, in
	// the same per-file/per-app shape the single-node pipeline uses, so
	// the coordinator's merged ledger is indistinguishable from a local
	// run's.
	Health *report.StudyHealth
}

// shardHealth is the gob wire form of the health ledger; the wrapper
// lets a nil ledger round-trip.
type shardHealth struct {
	Health *report.StudyHealth
}

// EncodeShardState serializes st with checksum framing.
func EncodeShardState(st *ShardState) ([]byte, error) {
	header := len(shardStateMagic) + sha256.Size
	out := binary.AppendUvarint(make([]byte, header), uint64(len(st.Suites)))
	for _, suite := range st.Suites {
		var err error
		if out, err = treebuild.AppendSuite(out, suite); err != nil {
			return nil, fmt.Errorf("serve: encoding shard state: %w", err)
		}
	}
	buf := bytes.NewBuffer(out)
	if err := gob.NewEncoder(buf).Encode(shardHealth{st.Health}); err != nil {
		return nil, fmt.Errorf("serve: encoding shard health: %w", err)
	}
	out = buf.Bytes()
	copy(out, shardStateMagic)
	sum := sha256.Sum256(out[header:])
	copy(out[len(shardStateMagic):], sum[:])
	return out, nil
}

// DecodeShardState parses and verifies a shard-state payload. Every
// failure mode — short header, wrong magic, checksum mismatch, a
// payload that does not decode strictly — returns an error wrapping
// ErrBadShardState.
func DecodeShardState(data []byte) (*ShardState, error) {
	header := len(shardStateMagic) + sha256.Size
	if len(data) < header {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header",
			ErrBadShardState, len(data), header)
	}
	if string(data[:len(shardStateMagic)]) != shardStateMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadShardState, data[:len(shardStateMagic)])
	}
	payload := data[header:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(shardStateMagic):header]) {
		return nil, fmt.Errorf("%w: checksum mismatch over %d payload bytes",
			ErrBadShardState, len(payload))
	}
	// The checksum passed, so a decode failure below means the worker
	// encoded something this build cannot read (version skew), which is
	// just as unusable as wire damage.
	st, err := decodeShardPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShardState, err)
	}
	return st, nil
}

func decodeShardPayload(p []byte) (*ShardState, error) {
	count, k := binary.Uvarint(p)
	if k <= 0 || count > uint64(len(p)) {
		return nil, errors.New("bad suite count")
	}
	p = p[k:]
	st := &ShardState{}
	for i := uint64(0); i < count; i++ {
		suite, rest, err := treebuild.ReadSuite(p)
		if err != nil {
			return nil, err
		}
		st.Suites = append(st.Suites, suite)
		p = rest
	}
	r := bytes.NewReader(p)
	var h shardHealth
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	st.Health = h.Health
	return st, nil
}

// shardStateOf extracts the mergeable partial state from a finished
// shard job's pipeline result.
func shardStateOf(res *report.StudyResult) *ShardState {
	st := &ShardState{Health: res.Health}
	for _, a := range res.Apps {
		st.Suites = append(st.Suites, a.Suite)
	}
	return st
}
