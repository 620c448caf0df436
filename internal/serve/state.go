package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/report"
	"lagalyzer/internal/treebuild"
)

// Shard partial state: the wire form a worker lagd returns for a
// "shard" job, consumed by the distributed coordinator
// (internal/dist). The payload is the mergeable part of a study plus
// the shard's health ledger, NOT the derived analysis: a study shard's
// suite frames (the checkpoint store's payloads), which the coordinator
// folds as a checkpoint hit, or a trace shard's closed per-file
// engine.AppFolds, which it merges as a single-node load does. Either
// way the merge is byte-identical to a single-node run.
//
// Framing is paranoid by design, because this payload crosses a
// network that the fault-injection suite is allowed to damage:
//
//	8 bytes  magic "LAGSHRD3"
//	32 bytes SHA-256 of the payload
//	N bytes  payload := uvarint(nframes) frame* tail
//	         frame   := treebuild suite frame (sessions as raw LiLa v2)
//	         tail    := gob of the Health ledger and the Folds, to the end
//
// The frames are carried undecoded: DecodeShardState checks their
// framing (treebuild.SplitSuite), and each session decodes once, in
// the coordinator's fold. Any truncation, reset, or bit flip — in the
// header, checksum, or payload — surfaces as ErrBadShardState, which
// the coordinator retries as wire damage, as it does a payload of
// another framing version. A session that fails its strict decode, or
// a fold at another threshold, under a good checksum is worker skew or
// a bug instead: the coordinator degrades the shard, merging none of it.

// shardStateMagic identifies (and versions) the shard-state framing.
const shardStateMagic = "LAGSHRD3"

// ErrBadShardState marks a shard-state payload that failed its framing
// or checksum validation: the bytes on the wire are not the bytes the
// worker produced.
var ErrBadShardState = errors.New("serve: shard state damaged in transit")

// ShardState is one worker's contribution to a distributed study.
type ShardState struct {
	// Frames are a study shard's suite frames, one per app in profile
	// order.
	Frames [][]byte
	// Folds are a trace shard's closed one-session folds, in (app,
	// path) order.
	Folds []*engine.AppFold
	// Health itemizes everything the shard lost or worked around, in
	// the same per-file/per-app shape the single-node pipeline uses, so
	// the coordinator's merged ledger is indistinguishable from a local
	// run's.
	Health *report.StudyHealth
}

// shardTail is the gob tail of the payload; the wrapper lets a nil
// ledger round-trip.
type shardTail struct {
	Health *report.StudyHealth
	Folds  []*engine.AppFold
}

// EncodeShardState serializes st with checksum framing.
func EncodeShardState(st *ShardState) ([]byte, error) {
	header := len(shardStateMagic) + sha256.Size
	out := binary.AppendUvarint(make([]byte, header), uint64(len(st.Frames)))
	for _, frame := range st.Frames {
		out = append(out, frame...)
	}
	buf := bytes.NewBuffer(out)
	if err := gob.NewEncoder(buf).Encode(shardTail{st.Health, st.Folds}); err != nil {
		return nil, fmt.Errorf("serve: encoding shard tail: %w", err)
	}
	out = buf.Bytes()
	copy(out, shardStateMagic)
	sum := sha256.Sum256(out[header:])
	copy(out[len(shardStateMagic):], sum[:])
	return out, nil
}

// DecodeShardState parses and verifies a shard-state payload. Every
// failure mode — short header, wrong magic, checksum mismatch, a
// payload or frame that does not parse — returns an error wrapping
// ErrBadShardState. No session is decoded.
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
		return nil, errors.New("bad frame count")
	}
	p = p[k:]
	st := &ShardState{}
	for i := uint64(0); i < count; i++ {
		_, _, rest, err := treebuild.SplitSuite(p)
		if err != nil {
			return nil, err
		}
		n := len(p) - len(rest)
		st.Frames = append(st.Frames, p[:n:n])
		p = rest
	}
	r := bytes.NewReader(p)
	var tail shardTail
	if err := gob.NewDecoder(r).Decode(&tail); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	st.Health, st.Folds = tail.Health, tail.Folds
	return st, nil
}
