// Package dist provides the probability distributions used to model VCR
// request durations (and arrival processes) in the VOD resource
// pre-allocation model.
//
// The paper's central requirement (§3) is that the hit-probability model
// accept an arbitrary probability density f(x) for the duration of a VCR
// operation, defined on [0, l] where l is the movie length. This package
// supplies the concrete families the paper evaluates — exponential and
// skewed gamma — together with several others useful for sensitivity
// studies, plus combinators (truncation, folding mod l, empirical fits)
// so measured user behaviour can be plugged in directly.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Distribution is a univariate continuous probability distribution on a
// subset of the real line. Implementations must be safe for concurrent
// readers; Sample mutates only the caller-supplied RNG.
type Distribution interface {
	// PDF returns the probability density at x (0 outside support).
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns the expectation.
	Mean() float64
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
	// Support returns the interval [lo, hi] outside which PDF is zero.
	// hi may be +Inf.
	Support() (lo, hi float64)
}

// Quantiler is implemented by distributions with an efficient inverse CDF.
type Quantiler interface {
	// Quantile returns inf{x : CDF(x) >= p} for p in [0, 1].
	Quantile(p float64) float64
}

// Varier is implemented by distributions that expose their variance.
type Varier interface {
	Variance() float64
}

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("dist: invalid parameter")

func badParam(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadParam, fmt.Sprintf(format, args...))
}

// Quantile computes the p-quantile of d, using the native Quantiler if
// available and bisection on the CDF otherwise. For p outside [0,1] it
// returns NaN.
func Quantile(d Distribution, p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if q, ok := d.(Quantiler); ok {
		return q.Quantile(p)
	}
	lo, hi := d.Support()
	if p == 0 {
		return lo
	}
	if math.IsInf(hi, 1) {
		// Expand until the CDF brackets p.
		hi = math.Max(1, lo+1)
		for d.CDF(hi) < p {
			hi = lo + (hi-lo)*2
			if hi > 1e308 {
				return math.Inf(1)
			}
		}
	}
	if p == 1 {
		return hi
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(hi)); i++ {
		mid := 0.5 * (lo + hi)
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
