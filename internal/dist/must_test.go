package dist

import "math/rand"

// Test-only constructors and references: the Must* forms panic on
// invalid parameters, for table-driven fixtures.

// MustTruncated is NewTruncated that panics on invalid parameters.
func MustTruncated(base Distribution, lo, hi float64) *Truncated {
	d, err := NewTruncated(base, lo, hi)
	if err != nil {
		panic(err)
	}
	return d
}

// MustEmpirical is NewEmpirical that panics on invalid parameters.
func MustEmpirical(samples []float64) *Empirical {
	d, err := NewEmpirical(samples)
	if err != nil {
		panic(err)
	}
	return d
}

// MustWeibull is NewWeibull that panics on invalid parameters.
func MustWeibull(shape, scale float64) Weibull {
	d, err := NewWeibull(shape, scale)
	if err != nil {
		panic(err)
	}
	return d
}

// MustLognormal is NewLognormal that panics on invalid parameters.
func MustLognormal(mu, sigma float64) Lognormal {
	d, err := NewLognormal(mu, sigma)
	if err != nil {
		panic(err)
	}
	return d
}

// SampleInverse draws a variate by inverse-transform sampling through
// Quantile, the reference the specialized samplers are checked against.
func SampleInverse(d Distribution, rng *rand.Rand) float64 {
	return Quantile(d, rng.Float64())
}

// Prob returns P(a < X <= b) = CDF(b) − CDF(a), clamped to [0, 1] to guard
// against rounding in the tails. It returns 0 when b <= a.
func Prob(d Distribution, a, b float64) float64 {
	if b <= a {
		return 0
	}
	p := d.CDF(b) - d.CDF(a)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
