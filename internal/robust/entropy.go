package robust

import "repro/internal/sketch"

// Entropy is the adversarially robust additive-ε entropy estimator of
// Theorem 1.10 / 7.3: dense sketch switching applied to g = 2^H (whose
// flip number Proposition 7.2 bounds), with Clifford–Cosma sketches as the
// static instances. The published estimate is log₂ of the switcher's
// rounded output, so an additive-ε guarantee in bits corresponds to the
// multiplicative (1 ± ε·ln 2) guarantee the rounding machinery provides.
//
// Ring recycling is *not* used here: restarted instances would estimate
// the entropy of a stream suffix, which (unlike a monotone norm) can
// differ arbitrarily from the full-stream entropy. Dense switching is the
// paper's own choice for this problem, and the reason its space bound
// carries the full λ = Õ(ε⁻²·log³ n) factor.
type Entropy struct {
	est sketch.Estimator // policy-wrapped; publishes bits via EntropyProblem
}

// NewEntropy returns a robust entropy estimator with additive error
// epsBits (in bits) and failure probability δ on streams whose 2^H flip
// number is at most lambda.
func NewEntropy(epsBits, delta float64, lambda int, seed int64) *Entropy {
	// Inner accuracy ε/3 (the paper's proof constant is ε/20; the coarser
	// setting keeps the λ-copy ensemble runnable and the integration tests
	// validate the end-to-end additive error empirically). The
	// construction is the dense-switching instance of the generic policy
	// layer over EntropyProblem (whose EpsScale handles the bits → nats
	// conversion), with the caller's flip budget.
	est, err := Policy{Kind: Switching, Budget: lambda}.Wrap(epsBits, delta, 1<<32, seed, EntropyProblem())
	if err != nil {
		panic("robust: " + err.Error())
	}
	return &Entropy{est: est}
}

// Update implements sketch.Estimator.
func (e *Entropy) Update(item uint64, delta int64) { e.est.Update(item, delta) }

// Estimate returns the entropy estimate in bits.
func (e *Entropy) Estimate() float64 { return e.est.Estimate() }

// Robustness implements sketch.RobustnessReporter.
func (e *Entropy) Robustness() sketch.Robustness {
	return e.est.(sketch.RobustnessReporter).Robustness()
}

// Exhausted reports whether the stream's flip number exceeded the budget.
func (e *Entropy) Exhausted() bool { return e.Robustness().Exhausted }

// Switches returns the number of published-output changes.
func (e *Entropy) Switches() int { return e.Robustness().Switches }

// SpaceBytes sums the switcher's instances.
func (e *Entropy) SpaceBytes() int { return e.est.SpaceBytes() }
