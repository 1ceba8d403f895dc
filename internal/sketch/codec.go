package sketch

import "fmt"

// Codec bundles the serialization and linear-merge operations of a
// mergeable sketch type behind the type-erased Estimator interface, so
// harnesses that hold heterogeneous estimators (the server's spec
// registry, the sketchtest conformance kit) can encode, decode, and merge
// without knowing the concrete type. Build one with CodecFor; every
// operation type-checks its arguments and reports a descriptive error on
// mismatch rather than panicking.
type Codec struct {
	// Name labels errors ("f2", "kmv", …).
	Name string

	// Append appends the estimator's encoded state to dst.
	Append func(dst []byte, est Estimator) ([]byte, error)

	// Unmarshal decodes a buffer produced by Append into a new instance.
	Unmarshal func(data []byte) (Estimator, error)

	// Fresh returns a zero-state estimator sharing est's randomness and
	// dimensions — the identity element of Merge.
	Fresh func(est Estimator) (Estimator, error)

	// Merge folds src into dst (dst ← dst ⊕ src). It fails, mutating
	// nothing, when the two instances are dimension- or
	// randomness-incompatible.
	Merge func(dst, src Estimator) error
}

// CodecFor derives a Codec from a sketch type's typed
// AppendBinary/UnmarshalBinary/Fresh/Merge methods. The single explicit
// type argument is the concrete sketch struct; its pointer type is
// inferred.
func CodecFor[T any, PT interface {
	*T
	Estimator
	AppendBinary(dst []byte) ([]byte, error)
	UnmarshalBinary([]byte) error
	Fresh() PT
	Merge(PT) error
}](name string) *Codec {
	cast := func(est Estimator) (PT, error) {
		p, ok := est.(PT)
		if !ok {
			return nil, fmt.Errorf("sketch: %s codec got a %T", name, est)
		}
		return p, nil
	}
	return &Codec{
		Name: name,
		Append: func(dst []byte, est Estimator) ([]byte, error) {
			p, err := cast(est)
			if err != nil {
				return dst, err
			}
			return p.AppendBinary(dst)
		},
		Unmarshal: func(data []byte) (Estimator, error) {
			var o T
			if err := PT(&o).UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return PT(&o), nil
		},
		Fresh: func(est Estimator) (Estimator, error) {
			p, err := cast(est)
			if err != nil {
				return nil, err
			}
			return p.Fresh(), nil
		},
		Merge: func(dst, src Estimator) error {
			d, err := cast(dst)
			if err != nil {
				return err
			}
			s, err := cast(src)
			if err != nil {
				return err
			}
			return d.Merge(s)
		},
	}
}
