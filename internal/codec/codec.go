// Package codec is the little-endian binary encoding behind every
// sketch's state. Encoding is one idiom: free Append* functions that
// append a word or a u64-length-prefixed slice to the caller's buffer
// (the encoding.BinaryAppender style), so a multi-shard snapshot is built
// in a single buffer. Decoding is one type: the sticky-error Reader —
// after its first failure every operation is a no-op and Err reports the
// cause. Single bytes need no helper; append them directly.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendU64 appends a fixed 64-bit word.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends a signed 64-bit word.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendF64 appends a float64 bit pattern.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendU64s appends a length-prefixed slice.
func AppendU64s(dst []byte, vs []uint64) []byte {
	dst = AppendU64(slices.Grow(dst, 8*(1+len(vs))), uint64(len(vs)))
	for _, v := range vs {
		dst = AppendU64(dst, v)
	}
	return dst
}

// AppendI64s appends a length-prefixed slice.
func AppendI64s(dst []byte, vs []int64) []byte {
	dst = AppendU64(slices.Grow(dst, 8*(1+len(vs))), uint64(len(vs)))
	for _, v := range vs {
		dst = AppendI64(dst, v)
	}
	return dst
}

// AppendF64s appends a length-prefixed slice.
func AppendF64s(dst []byte, vs []float64) []byte {
	dst = AppendU64(slices.Grow(dst, 8*(1+len(vs))), uint64(len(vs)))
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// AppendU8s appends a length-prefixed byte slice.
func AppendU8s(dst []byte, vs []uint8) []byte {
	return append(AppendU64(dst, uint64(len(vs))), vs...)
}

// Reader decodes a buffer produced by the Append* functions.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("codec: truncated input at offset %d (need %d of %d bytes)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a 64-bit word.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen validates a length prefix against the remaining input, which
// must hold at least elemSize bytes per element.
func (r *Reader) sliceLen(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n > uint64(len(r.b)-r.off)/uint64(elemSize) {
		r.err = fmt.Errorf("codec: declared length %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed slice.
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen(8)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64s reads a length-prefixed slice.
func (r *Reader) I64s() []int64 {
	n := r.sliceLen(8)
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// F64s reads a length-prefixed slice.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen(8)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// U8s reads a length-prefixed byte slice.
func (r *Reader) U8s() []uint8 {
	n := r.sliceLen(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]uint8(nil), b...)
}

// Done reports an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("codec: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
