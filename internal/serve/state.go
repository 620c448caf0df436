package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"

	"lagalyzer/internal/engine"
	"lagalyzer/internal/report"
)

// Shard partial state: the wire form a worker lagd returns for a
// "shard" job, consumed by the distributed coordinator
// (internal/dist). The payload is the mergeable part of a study plus
// the shard's health ledger, NOT the derived analysis: closed
// engine.AppFolds, one merged fold per app: a study shard's is the
// checkpoint store's payload, which the coordinator finishes as a
// checkpoint hit, and a trace shard's merges into the app's fold when
// the shard lands. Folds merge in any order, so the result is
// byte-identical to a single-node run.
//
// Framing is paranoid by design, because this payload crosses a
// network that the fault-injection suite is allowed to damage:
//
//	8 bytes  magic "LAGSHRD6"
//	32 bytes SHA-256 of the payload
//	N bytes  payload := gob of the Health ledger and the Folds
//
// Any truncation, reset, or bit flip — in the header, checksum, or
// payload — surfaces as ErrBadShardState, which the coordinator
// retries as wire damage, as it does a payload of another framing
// version (an older worker's "LAGSHRD3" state carried suite frames, a
// "LAGSHRD4" state's patterns a float lag summary, and a "LAGSHRD5"
// state's session tallies no session ID).
// A fold of another app, threshold or session count under a good
// checksum is worker skew or a bug instead: the coordinator degrades
// the shard, merging none of it.

// shardStateMagic identifies (and versions) the shard-state framing.
const shardStateMagic = "LAGSHRD6"

// ErrBadShardState marks a shard-state payload that failed its framing
// or checksum validation: the bytes on the wire are not the bytes the
// worker produced.
var ErrBadShardState = errors.New("serve: shard state damaged in transit")

// ShardState is one worker's contribution to a distributed study.
type ShardState struct {
	// Folds are closed folds, one merged fold per app: a study shard's
	// in profile order, a trace shard's in app order.
	Folds []*engine.AppFold
	// Health itemizes everything the shard lost or worked around, in
	// the same per-file/per-app shape the single-node pipeline uses, so
	// the coordinator's merged ledger is indistinguishable from a local
	// run's.
	Health *report.StudyHealth
}

// EncodeShardState serializes st with checksum framing.
func EncodeShardState(st *ShardState) ([]byte, error) {
	header := len(shardStateMagic) + sha256.Size
	buf := bytes.NewBuffer(make([]byte, header))
	if err := gob.NewEncoder(buf).Encode(st); err != nil {
		return nil, fmt.Errorf("serve: encoding shard state: %w", err)
	}
	out := buf.Bytes()
	copy(out, shardStateMagic)
	sum := sha256.Sum256(out[header:])
	copy(out[len(shardStateMagic):], sum[:])
	return out, nil
}

// DecodeShardState parses and verifies a shard-state payload. Every
// failure mode — short header, wrong magic, checksum mismatch, a
// payload that does not decode — returns an error wrapping
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
	r := bytes.NewReader(payload)
	st := &ShardState{}
	if err := gob.NewDecoder(r).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShardState, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadShardState, r.Len())
	}
	return st, nil
}
