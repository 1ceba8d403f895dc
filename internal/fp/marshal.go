package fp

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/dist"
	"repro/internal/hash"
)

const (
	f2FormatV1    = 1
	indykFormatV1 = 1
)

// AppendBinary appends the sketch state (hash functions + counters) to dst.
func (f *F2Sketch) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, f2FormatV1)
	dst = codec.AppendU64(dst, uint64(f.rows))
	dst = codec.AppendU64(dst, uint64(f.w))
	for r := 0; r < f.rows; r++ {
		dst = codec.AppendU64s(dst, f.hs[r].Coeffs())
		dst = codec.AppendF64s(dst, f.c[r])
	}
	return dst, nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (f *F2Sketch) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing f.
func (f *F2Sketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != f2FormatV1 && r.Err() == nil {
		return fmt.Errorf("fp: unsupported F2Sketch format version %d", v)
	}
	rows := int(r.U64())
	w := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	if rows < 1 || rows > 1<<20 || w < 1 {
		return fmt.Errorf("fp: invalid F2Sketch dimensions %dx%d", rows, w)
	}
	hs := make([]hash.Poly, 0, rows)
	c := make([][]float64, 0, rows)
	for i := 0; i < rows; i++ {
		hs = append(hs, hash.PolyFromCoeffs(r.U64s()))
		row := r.F64s()
		if r.Err() == nil && len(row) != w {
			return fmt.Errorf("fp: row %d has %d counters, want %d", i, len(row), w)
		}
		c = append(c, row)
	}
	if err := r.Done(); err != nil {
		return err
	}
	f.rows, f.w, f.hs, f.c = rows, w, hs, c
	f.sumSq = make([]float64, rows)
	f.scratch = nil
	f.Resummate()
	return nil
}

// AppendBinary appends the sketch state (salts + counters; the
// calibration constant is recomputed on decode) to dst.
func (s *Indyk) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, indykFormatV1)
	dst = codec.AppendF64(dst, s.p)
	dst = codec.AppendU64s(dst, s.salts)
	return codec.AppendF64s(dst, s.y), nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (s *Indyk) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing s.
func (s *Indyk) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != indykFormatV1 && r.Err() == nil {
		return fmt.Errorf("fp: unsupported Indyk format version %d", v)
	}
	p := r.F64()
	salts := r.U64s()
	y := r.F64s()
	if err := r.Done(); err != nil {
		return err
	}
	if p <= 0 || p > 2 {
		return fmt.Errorf("fp: invalid Indyk p = %v", p)
	}
	if len(salts) != len(y) || len(salts) < 2 {
		return fmt.Errorf("fp: inconsistent Indyk state (%d salts, %d counters)", len(salts), len(y))
	}
	s.p, s.k, s.salts, s.y = p, len(salts), salts, y
	s.calib = dist.MedianAbs(p)
	return nil
}
