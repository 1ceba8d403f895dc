package f0

import (
	"container/heap"
	"fmt"

	"repro/internal/codec"
	"repro/internal/hash"
)

// Binary format versions; bumped on any layout change.
const (
	kmvFormatV1 = 1
	hllFormatV1 = 1
)

// AppendBinary appends the sketch state (including the hash function, so
// the decoded sketch can continue the stream and merge with its shards)
// to dst.
func (s *KMV) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, kmvFormatV1)
	dst = codec.AppendU64(dst, uint64(s.k))
	dst = codec.AppendU64s(dst, s.h.Coeffs())
	return codec.AppendU64s(dst, s.vals), nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (s *KMV) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing s.
func (s *KMV) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != kmvFormatV1 && r.Err() == nil {
		return fmt.Errorf("f0: unsupported KMV format version %d", v)
	}
	k := int(r.U64())
	coeffs := r.U64s()
	vals := r.U64s()
	if err := r.Done(); err != nil {
		return err
	}
	if k < 2 {
		return fmt.Errorf("f0: invalid KMV k = %d", k)
	}
	if len(vals) > k {
		return fmt.Errorf("f0: KMV holds %d values but k = %d", len(vals), k)
	}
	s.k = k
	s.h = hash.PolyFromCoeffs(coeffs)
	s.vals = vals
	heap.Init(&s.vals)
	s.in = make(map[uint64]struct{}, len(vals))
	for _, v := range vals {
		s.in[v] = struct{}{}
	}
	return nil
}

// AppendBinary appends the HLL state (registers + hash function) to dst.
func (s *HLL) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, hllFormatV1, s.precision)
	dst = codec.AppendU64s(dst, s.h.Coeffs())
	return codec.AppendU8s(dst, s.regs), nil
}

// MarshalBinary encodes the HLL state; see AppendBinary.
func (s *HLL) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing s.
func (s *HLL) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != hllFormatV1 && r.Err() == nil {
		return fmt.Errorf("f0: unsupported HLL format version %d", v)
	}
	precision := r.U8()
	coeffs := r.U64s()
	regs := r.U8s()
	if err := r.Done(); err != nil {
		return err
	}
	if precision < 4 || precision > 18 {
		return fmt.Errorf("f0: invalid HLL precision %d", precision)
	}
	if len(regs) != 1<<precision {
		return fmt.Errorf("f0: HLL has %d registers for precision %d", len(regs), precision)
	}
	s.precision = precision
	s.h = hash.PolyFromCoeffs(coeffs)
	s.regs = regs
	return nil
}
