package entropy

import (
	"fmt"

	"repro/internal/codec"
)

const ccFormatV1 = 1

// AppendBinary appends the sketch state (dimensions, variate salts,
// counters, and the exact F1 counter) to dst.
func (cc *CC) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, ccFormatV1)
	dst = codec.AppendU64(dst, uint64(cc.groups))
	dst = codec.AppendU64(dst, uint64(cc.per))
	dst = codec.AppendU64s(dst, cc.salts)
	dst = codec.AppendF64s(dst, cc.y)
	return codec.AppendI64(dst, cc.f1), nil
}

// MarshalBinary encodes the sketch state; see AppendBinary.
func (cc *CC) MarshalBinary() ([]byte, error) { return cc.AppendBinary(nil) }

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cc.
func (cc *CC) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != ccFormatV1 && r.Err() == nil {
		return fmt.Errorf("entropy: unsupported CC format version %d", v)
	}
	groups := int(r.U64())
	per := int(r.U64())
	salts := r.U64s()
	y := r.F64s()
	f1 := r.I64()
	if err := r.Done(); err != nil {
		return err
	}
	if groups < 1 || per < 1 || groups > 1<<20 || per > 1<<30 {
		return fmt.Errorf("entropy: invalid CC dimensions %d×%d", groups, per)
	}
	if len(salts) != groups*per || len(y) != groups*per {
		return fmt.Errorf("entropy: inconsistent CC state (%d×%d dims, %d salts, %d counters)",
			groups, per, len(salts), len(y))
	}
	cc.groups, cc.per, cc.salts, cc.y, cc.f1 = groups, per, salts, y, f1
	return nil
}
