package heavyhitters

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/hash"
)

const (
	csFormatV1 = 1
	csFormatV2 = 2 // adds per-candidate retention tallies after the id list
	cmFormatV1 = 1
)

// AppendBinary appends the sketch state (hash functions, counters, and
// the candidate pool with its retention tallies, so heavy hitters — and
// their pruning behaviour — survive the round trip) to dst.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, csFormatV2)
	dst = codec.AppendU64(dst, uint64(cs.rows))
	dst = codec.AppendU64(dst, uint64(cs.w))
	dst = codec.AppendU64(dst, uint64(cs.candCap))
	for r := 0; r < cs.rows; r++ {
		dst = codec.AppendU64s(dst, cs.hs[r].Coeffs())
		dst = codec.AppendI64s(dst, cs.c[r])
	}
	cands := make([]uint64, 0, len(cs.cands))
	for it := range cs.cands {
		cands = append(cands, it)
	}
	// Canonical order: the candidate pool is a map, and ranging over it
	// would make two encodings of identical state differ byte-for-byte.
	slices.Sort(cands)
	dst = codec.AppendU64s(dst, cands)
	// The tallies in candidate order, laid out as AppendI64s would.
	dst = codec.AppendU64(dst, uint64(len(cands)))
	for _, it := range cands {
		dst = codec.AppendI64(dst, cs.cands[it])
	}
	return dst, nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cs.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	version := r.U8()
	if version != csFormatV1 && version != csFormatV2 && r.Err() == nil {
		return fmt.Errorf("heavyhitters: unsupported CountSketch format version %d", version)
	}
	rows := int(r.U64())
	w := int(r.U64())
	candCap := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	if rows < 1 || rows > 1<<20 || w < 1 || candCap < 0 {
		return fmt.Errorf("heavyhitters: invalid CountSketch header (%d, %d, %d)", rows, w, candCap)
	}
	hs := make([]hash.Poly, 0, rows)
	c := make([][]int64, 0, rows)
	for i := 0; i < rows; i++ {
		hs = append(hs, hash.PolyFromCoeffs(r.U64s()))
		row := r.I64s()
		if r.Err() == nil && len(row) != w {
			return fmt.Errorf("heavyhitters: row %d has %d counters, want %d", i, len(row), w)
		}
		c = append(c, row)
	}
	cands := r.U64s()
	var weights []int64
	if version >= csFormatV2 {
		weights = r.I64s()
		if r.Err() == nil && len(weights) != len(cands) {
			return fmt.Errorf("heavyhitters: %d candidate weights for %d candidates", len(weights), len(cands))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	cs.rows, cs.w, cs.candCap, cs.hs, cs.c = rows, w, candCap, hs, c
	cs.sumSq = make([]float64, rows)
	cs.qbuf, cs.ebuf = nil, nil
	cs.Resummate()
	cs.cands = make(map[uint64]int64, len(cands))
	for i, it := range cands {
		// V1 snapshots carry no tallies; re-admit at zero and let future
		// updates rebuild them.
		var wt int64
		if weights != nil {
			wt = weights[i]
		}
		cs.cands[it] = wt
	}
	return nil
}

// AppendBinary appends the sketch state (hash functions + counters) to dst.
func (cm *CountMin) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, cmFormatV1)
	dst = codec.AppendU64(dst, uint64(cm.rows))
	dst = codec.AppendU64(dst, uint64(cm.w))
	for r := 0; r < cm.rows; r++ {
		dst = codec.AppendU64s(dst, cm.hs[r].Coeffs())
		dst = codec.AppendI64s(dst, cm.c[r])
	}
	return dst, nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (cm *CountMin) MarshalBinary() ([]byte, error) { return cm.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cm.
func (cm *CountMin) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != cmFormatV1 && r.Err() == nil {
		return fmt.Errorf("heavyhitters: unsupported CountMin format version %d", v)
	}
	rows := int(r.U64())
	w := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	if rows < 1 || rows > 1<<20 || w < 1 {
		return fmt.Errorf("heavyhitters: invalid CountMin dimensions %dx%d", rows, w)
	}
	hs := make([]hash.Poly, 0, rows)
	c := make([][]int64, 0, rows)
	for i := 0; i < rows; i++ {
		hs = append(hs, hash.PolyFromCoeffs(r.U64s()))
		row := r.I64s()
		if r.Err() == nil && len(row) != w {
			return fmt.Errorf("heavyhitters: row %d has %d counters, want %d", i, len(row), w)
		}
		c = append(c, row)
	}
	if err := r.Done(); err != nil {
		return err
	}
	cm.rows, cm.w, cm.hs, cm.c = rows, w, hs, c
	return nil
}
