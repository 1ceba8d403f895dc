package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
	"repro/internal/sketch"
)

// The snapshot envelope carried by GET /v1/snapshot and POST /v1/merge:
// a version byte, the sketch type name, and one opaque blob per shard
// (each shard's estimator serialized by its own AppendBinary). Shard
// blobs are positional — merging requires the same shard count and the
// same root seed on both servers, so shard i's estimator on the source
// shares randomness with shard i's on the destination and the items hash
// to the same shards.
//
// V2 (the only version written since snapshots became the WAL checkpoint
// body) prefixes the body with a CRC32-C so a bit-flipped or truncated
// shard blob is rejected before it can merge silently-corrupt counters:
//
//	+---------+----------------+================================+
//	| version |  CRC32-C (u64) |  body: name, count, parts      |
//	+---------+----------------+================================+
//
// V1 envelopes (no checksum) still decode for compatibility with
// snapshots taken by older builds.
const (
	snapshotFormatV1 = 1
	snapshotFormatV2 = 2
)

// snapshotV2HeaderLen is the version byte plus the codec-encoded (u64)
// checksum that precede the body.
const snapshotV2HeaderLen = 1 + 8

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotChecksum is returned by decodeSnapshot when a V2 envelope's
// body does not match its checksum.
var ErrSnapshotChecksum = errors.New("server: snapshot checksum mismatch")

// snapshot encodes the tenant's state as a V2 envelope, appending every
// shard's state straight into one buffer: each shard's length prefix and
// then the checksum are back-patched once the bytes behind them are in
// place. The buffer is sized from the tenant's previous envelope plus an
// eighth, headroom for state that has grown since (a fuller KMV, a larger
// candidate pool) so a slightly longer envelope does not reallocate. The
// tenant must be Mergeable.
func (t *tenant) snapshot() ([]byte, error) {
	prev := int(t.snapBytes.Load())
	env := make([]byte, 0, prev+prev/8)
	env = append(env, snapshotFormatV2)
	env = codec.AppendU64(env, 0) // checksum, patched below
	env = codec.AppendU8s(env, []byte(t.spec.Name))
	env = codec.AppendU64(env, uint64(t.eng.Shards()))
	err := t.eng.Visit(func(_ int, est sketch.Estimator) error {
		at := len(env)
		b, err := t.spec.codec.Append(codec.AppendU64(env, 0), est) // part length, patched below
		if err != nil {
			return err
		}
		env = b
		binary.LittleEndian.PutUint64(env[at:], uint64(len(env)-at-8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(env[1:], uint64(crc32.Checksum(env[snapshotV2HeaderLen:], snapshotCRCTable)))
	t.snapBytes.Store(int64(len(env)))
	return env, nil
}

func decodeSnapshot(data []byte) (sketchName string, parts [][]byte, err error) {
	r := codec.NewReader(data)
	switch v := r.U8(); {
	case r.Err() != nil:
		return "", nil, r.Err()
	case v == snapshotFormatV1:
		// Legacy: no checksum, body follows the version byte directly.
	case v == snapshotFormatV2:
		sum := r.U64()
		if r.Err() != nil {
			return "", nil, r.Err()
		}
		if sum != uint64(crc32.Checksum(data[snapshotV2HeaderLen:], snapshotCRCTable)) {
			return "", nil, ErrSnapshotChecksum
		}
	default:
		return "", nil, fmt.Errorf("server: unsupported snapshot format version %d", v)
	}
	name := string(r.U8s())
	n := r.U64()
	if r.Err() != nil {
		return "", nil, r.Err()
	}
	// Each shard blob costs at least its 8-byte length prefix.
	if n > uint64(len(data))/8 {
		return "", nil, fmt.Errorf("server: snapshot declares %d shards for %d bytes", n, len(data))
	}
	parts = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		parts = append(parts, r.U8s())
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return name, parts, nil
}
