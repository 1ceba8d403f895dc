package codec

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRoundTrip covers the one wire format in the repository that had no
// fuzz target: the codec layer itself. Each input plays two roles.
//
// First, encode→decode: the fuzzed scalars and byte payload are appended
// through every Append* function and must read back exactly, with Done
// reporting a fully consumed buffer. Second, adversarial decode: the raw
// fuzz payload is fed straight into a Reader driven through a fixed op
// schedule, which must never panic, must stick to its first error, and
// must never fabricate slice lengths beyond what the input can back — the
// properties every sketch UnmarshalBinary built on this package inherits.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), uint64(0), []byte(nil))
	f.Add(uint64(1<<63), int64(-1), math.Float64bits(3.25), []byte{1, 2, 3})
	f.Add(^uint64(0), int64(math.MinInt64), math.Float64bits(math.Inf(-1)), bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, u uint64, i int64, fbits uint64, payload []byte) {
		fv := math.Float64frombits(fbits)

		// Derive slices of every element type from the payload so their
		// lengths and contents vary with the corpus.
		var us []uint64
		var is []int64
		var fs []float64
		for k := 0; k+8 <= len(payload); k += 8 {
			word := uint64(0)
			for b := 0; b < 8; b++ {
				word = word<<8 | uint64(payload[k+b])
			}
			us = append(us, word)
			is = append(is, int64(word))
			fs = append(fs, math.Float64frombits(word))
		}

		b := []byte{uint8(u)}
		b = AppendU64(b, u)
		b = AppendI64(b, i)
		b = AppendF64(b, fv)
		b = AppendU64s(b, us)
		b = AppendI64s(b, is)
		b = AppendF64s(b, fs)
		b = AppendU8s(b, payload)

		r := NewReader(b)
		if got := r.U8(); got != uint8(u) {
			t.Fatalf("U8 = %d, want %d", got, uint8(u))
		}
		if got := r.U64(); got != u {
			t.Fatalf("U64 = %d, want %d", got, u)
		}
		if got := r.I64(); got != i {
			t.Fatalf("I64 = %d, want %d", got, i)
		}
		if got := r.F64(); math.Float64bits(got) != math.Float64bits(fv) {
			t.Fatalf("F64 = %v, want %v", got, fv)
		}
		gu, gi, gf, gb := r.U64s(), r.I64s(), r.F64s(), r.U8s()
		if err := r.Done(); err != nil {
			t.Fatalf("Done after full read: %v", err)
		}
		if len(gu) != len(us) || len(gi) != len(is) || len(gf) != len(fs) || len(gb) != len(payload) {
			t.Fatalf("slice lengths %d/%d/%d/%d, want %d/%d/%d/%d",
				len(gu), len(gi), len(gf), len(gb), len(us), len(is), len(fs), len(payload))
		}
		for k := range us {
			if gu[k] != us[k] || gi[k] != is[k] || math.Float64bits(gf[k]) != math.Float64bits(fs[k]) {
				t.Fatalf("slice element %d corrupted in round trip", k)
			}
		}
		if !bytes.Equal(gb, payload) {
			t.Fatalf("byte payload corrupted in round trip")
		}

		// Adversarial decode: the raw payload as a hostile buffer.
		ar := NewReader(payload)
		_ = ar.U8()
		firstBad := ar.Err()
		sl := ar.U64s()
		if n := len(payload); len(sl)*8 > n {
			t.Fatalf("U64s fabricated %d elements from a %d-byte buffer", len(sl), n)
		}
		_ = ar.I64s()
		_ = ar.F64s()
		_ = ar.U8s()
		_ = ar.F64()
		if firstBad != nil && ar.Err() != firstBad {
			t.Fatalf("sticky error replaced: %v -> %v", firstBad, ar.Err())
		}
		_ = ar.Done()
	})
}
