package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A Checkpoint captures one tenant's durable state at a log position: the
// resolved tenant spec (so recovery can re-declare the tenant exactly) and,
// for mergeable sketches, the snapshot-envelope state. State covers every
// record with LSN <= LSN; records after it are replayed from the log.
type Checkpoint struct {
	Key   string
	LSN   uint64
	Spec  []byte // resolved tenant-spec JSON
	State []byte // snapshot envelope; empty for non-mergeable tenants

	// Mass and Deleted carry the tenant's engine-level stream-mass
	// accounting (net Σdelta and Σ|delta| over deletions), which lives
	// outside the sketch state: replay rebuilds it, a restored snapshot
	// alone does not.
	Mass    int64
	Deleted int64
}

// Checkpoint file layout:
//
//	+------+---------+--------------+================================+
//	| SKCP | version | CRC32-C u32  |  body                          |
//	+------+---------+--------------+================================+
//
//	body: LSN u64 | mass u64 | deleted u64 | key len uvarint | key |
//	      spec len uvarint | spec | state len uvarint | state
//
// The CRC covers the body. Files are written to a unique temp name and
// renamed into place, so a crash mid-checkpoint leaves the previous
// checkpoint intact.
const (
	ckptMagic     = "SKCP"
	ckptVersion   = 1
	ckptHeaderLen = 4 + 1 + 4
)

// ErrCheckpointCorrupt marks a checkpoint file that failed validation.
// Callers fall back to full log replay for that tenant.
var ErrCheckpointCorrupt = errors.New("wal: checkpoint corrupt")

func checkpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, "ck-"+hex.EncodeToString(sum[:12])+".ckpt")
}

// WriteCheckpoint atomically persists ck into dir, replacing any previous
// checkpoint for the same key.
func WriteCheckpoint(dir string, ck Checkpoint) error {
	out := make([]byte, ckptHeaderLen, ckptHeaderLen+24+3*binary.MaxVarintLen64+len(ck.Key)+len(ck.Spec)+len(ck.State))
	copy(out, ckptMagic)
	out[4] = ckptVersion // the CRC at out[5:9] is patched once the body is in place
	out = binary.LittleEndian.AppendUint64(out, ck.LSN)
	out = binary.LittleEndian.AppendUint64(out, uint64(ck.Mass))
	out = binary.LittleEndian.AppendUint64(out, uint64(ck.Deleted))
	out = binary.AppendUvarint(out, uint64(len(ck.Key)))
	out = append(out, ck.Key...)
	out = binary.AppendUvarint(out, uint64(len(ck.Spec)))
	out = append(out, ck.Spec...)
	out = binary.AppendUvarint(out, uint64(len(ck.State)))
	out = append(out, ck.State...)
	binary.LittleEndian.PutUint32(out[5:ckptHeaderLen], crc32.Checksum(out[ckptHeaderLen:], crcTable))

	// Each write gets its own temp file, so concurrent checkpoints of one
	// key never share (and truncate) a file: the last rename wins whole.
	final := checkpointPath(dir, ck.Key)
	f, err := os.CreateTemp(dir, filepath.Base(final)+".*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(out); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

// RemoveCheckpoint deletes the checkpoint for key, if any.
func RemoveCheckpoint(dir, key string) error {
	err := os.Remove(checkpointPath(dir, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// LoadCheckpoints reads every checkpoint in dir. Corrupt files are skipped
// (their paths returned for reporting) — the tenant they belonged to is
// recovered by full replay instead. Temp files left by a crash mid-write are
// removed, so call it only while no checkpoint is being written (at boot).
func LoadCheckpoints(dir string) (map[string]Checkpoint, []string, error) {
	stale, err := filepath.Glob(filepath.Join(dir, "ck-*.tmp"))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "ck-*.ckpt"))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	out := make(map[string]Checkpoint, len(paths))
	var corrupt []string
	for _, p := range paths {
		ck, err := readCheckpoint(p)
		if err != nil {
			corrupt = append(corrupt, p)
			continue
		}
		out[ck.Key] = ck
	}
	return out, corrupt, nil
}

func readCheckpoint(p string) (Checkpoint, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return Checkpoint{}, err
	}
	if len(data) < ckptHeaderLen || string(data[:4]) != ckptMagic || data[4] != ckptVersion {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	crc := binary.LittleEndian.Uint32(data[5:9])
	body := data[ckptHeaderLen:]
	if crc32.Checksum(body, crcTable) != crc {
		return Checkpoint{}, ErrCheckpointCorrupt
	}

	var ck Checkpoint
	if len(body) < 24 {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	ck.LSN = binary.LittleEndian.Uint64(body)
	ck.Mass = int64(binary.LittleEndian.Uint64(body[8:]))
	ck.Deleted = int64(binary.LittleEndian.Uint64(body[16:]))
	body = body[24:]
	next := func() ([]byte, bool) {
		n, w := binary.Uvarint(body)
		if w <= 0 || n > uint64(len(body)-w) {
			return nil, false
		}
		v := body[w : w+int(n)]
		body = body[w+int(n):]
		return v, true
	}
	key, ok := next()
	if !ok {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	spec, ok := next()
	if !ok {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	state, ok := next()
	if !ok || len(body) != 0 {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	ck.Key = string(key)
	ck.Spec = append([]byte(nil), spec...)
	ck.State = append([]byte(nil), state...)
	return ck, nil
}
