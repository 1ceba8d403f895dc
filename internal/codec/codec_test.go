package codec

import (
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	b := []byte{7}
	b = AppendU64(b, 1<<60)
	b = AppendI64(b, -42)
	b = AppendF64(b, 3.25)
	r := NewReader(b)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestRoundTripSlicesProperty(t *testing.T) {
	prop := func(us []uint64, is []int64, fs []float64, bs []uint8) bool {
		b := AppendU64s(nil, us)
		b = AppendI64s(b, is)
		b = AppendF64s(b, fs)
		b = AppendU8s(b, bs)
		r := NewReader(b)
		gu, gi, gf, gb := r.U64s(), r.I64s(), r.F64s(), r.U8s()
		if r.Done() != nil {
			return false
		}
		if len(gu) != len(us) || len(gi) != len(is) || len(gf) != len(fs) || len(gb) != len(bs) {
			return false
		}
		for i := range us {
			if gu[i] != us[i] {
				return false
			}
		}
		for i := range is {
			if gi[i] != is[i] {
				return false
			}
		}
		for i := range fs {
			if gf[i] != fs[i] && !(fs[i] != fs[i] && gf[i] != gf[i]) { // NaN-safe
				return false
			}
		}
		for i := range bs {
			if gb[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	full := AppendU64s(nil, []uint64{1, 2, 3})
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64s()
		if r.Err() == nil && cut < len(full) {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestHostileLengthPrefixRejected(t *testing.T) {
	// A declared length far beyond the buffer must not cause a huge
	// allocation; the reader validates against remaining input.
	r := NewReader(AppendU64(nil, 1<<62)) // absurd length prefix
	out := r.U64s()
	if r.Err() == nil {
		t.Error("absurd length prefix accepted")
	}
	if len(out) != 0 {
		t.Errorf("allocated %d elements from hostile input", len(out))
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); err == nil {
		t.Error("trailing byte not detected")
	}
}
