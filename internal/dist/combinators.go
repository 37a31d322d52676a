package dist

import (
	"math"
	"math/rand"
	"sort"
)

// Truncated restricts a base distribution to [Lo, Hi] and renormalizes.
// The paper defines VCR-duration densities on [0, l]; Truncate is the
// direct way to build such an f from an unbounded family.
type Truncated struct {
	base   Distribution
	lo, hi float64
	mass   float64 // base probability mass inside [lo, hi]
	cdfLo  float64
}

// NewTruncated truncates base to [lo, hi]. The base must carry strictly
// positive probability mass inside the interval.
func NewTruncated(base Distribution, lo, hi float64) (*Truncated, error) {
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, badParam("truncation bounds [%v, %v] must satisfy lo < hi", lo, hi)
	}
	cdfLo := base.CDF(lo)
	mass := base.CDF(hi) - cdfLo
	if !(mass > 0) {
		return nil, badParam("no probability mass in [%v, %v]", lo, hi)
	}
	return &Truncated{base: base, lo: lo, hi: hi, mass: mass, cdfLo: cdfLo}, nil
}

func (d *Truncated) PDF(x float64) float64 {
	if x < d.lo || x > d.hi {
		return 0
	}
	return d.base.PDF(x) / d.mass
}

func (d *Truncated) CDF(x float64) float64 {
	switch {
	case x <= d.lo:
		return 0
	case x >= d.hi:
		return 1
	default:
		p := (d.base.CDF(x) - d.cdfLo) / d.mass
		return math.Min(1, math.Max(0, p))
	}
}

// Mean integrates numerically over the truncated support via the identity
// E[X] = lo + ∫(1 − CDF) on [lo, hi], using a fixed fine grid. The
// integrand is monotone and bounded, so the composite trapezoid converges
// quickly; 4096 panels give ~1e-9 relative accuracy for smooth bases.
func (d *Truncated) Mean() float64 {
	const n = 4096
	h := (d.hi - d.lo) / n
	sum := 0.5 * ((1 - d.CDF(d.lo)) + (1 - d.CDF(d.hi)))
	for i := 1; i < n; i++ {
		sum += 1 - d.CDF(d.lo+float64(i)*h)
	}
	return d.lo + sum*h
}

func (d *Truncated) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return Quantile(d.base, d.cdfLo+p*d.mass)
}

func (d *Truncated) Sample(rng *rand.Rand) float64 {
	x := d.Quantile(rng.Float64())
	// Clamp against base-quantile rounding at the edges.
	return math.Min(d.hi, math.Max(d.lo, x))
}

func (d *Truncated) Support() (float64, float64) { return d.lo, d.hi }

// Folded wraps a nonnegative base distribution modulo Period. The paper
// (§2.1) observes that a pause of x > l is equivalent to a pause of
// x mod l because the movie restarts periodically; Folded makes that
// equivalence a first-class density on [0, Period).
type Folded struct {
	base   Distribution
	period float64
	terms  int
}

// NewFolded folds base (supported on [0, ∞)) modulo period.
func NewFolded(base Distribution, period float64) (*Folded, error) {
	if !(period > 0) || math.IsInf(period, 0) {
		return nil, badParam("fold period %v must be positive and finite", period)
	}
	if lo, _ := base.Support(); lo < 0 {
		return nil, badParam("fold base must be supported on [0, ∞), got lower bound %v", lo)
	}
	// Find how many wraps carry non-negligible mass.
	terms := 1
	for terms < 10000 && 1-base.CDF(float64(terms)*period) > 1e-13 {
		terms++
	}
	return &Folded{base: base, period: period, terms: terms}, nil
}

// MustFolded is NewFolded that panics on invalid parameters.
func MustFolded(base Distribution, period float64) *Folded {
	d, err := NewFolded(base, period)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Folded) PDF(x float64) float64 {
	if x < 0 || x >= d.period {
		return 0
	}
	var sum float64
	for k := 0; k < d.terms; k++ {
		sum += d.base.PDF(x + float64(k)*d.period)
	}
	return sum
}

func (d *Folded) CDF(x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= d.period:
		return 1
	}
	var sum float64
	for k := 0; k < d.terms; k++ {
		off := float64(k) * d.period
		sum += d.base.CDF(off+x) - d.base.CDF(off)
	}
	return math.Min(1, math.Max(0, sum))
}

// Mean is E[X mod Period] computed from the folded CDF.
func (d *Folded) Mean() float64 {
	const n = 4096
	h := d.period / n
	sum := 0.5 * ((1 - d.CDF(0)) + (1 - d.CDF(d.period)))
	for i := 1; i < n; i++ {
		sum += 1 - d.CDF(float64(i)*h)
	}
	return sum * h
}

func (d *Folded) Sample(rng *rand.Rand) float64 {
	return math.Mod(d.base.Sample(rng), d.period)
}

func (d *Folded) Support() (float64, float64) { return 0, d.period }

// Empirical is a continuous distribution fit to observed durations by
// linear interpolation of the empirical CDF between order statistics.
// The paper notes (§2.1) that "the pdf of VCR requests can be obtained by
// statistics while the movie is displayed" — Empirical is that path.
type Empirical struct {
	xs []float64 // sorted observations
}

// NewEmpirical builds an empirical distribution from at least two finite
// observations.
func NewEmpirical(samples []float64) (*Empirical, error) {
	if len(samples) < 2 {
		return nil, badParam("empirical distribution needs at least 2 samples, got %d", len(samples))
	}
	xs := make([]float64, len(samples))
	copy(xs, samples)
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, badParam("empirical sample %v must be finite", v)
		}
	}
	sort.Float64s(xs)
	if xs[0] == xs[len(xs)-1] {
		return nil, badParam("empirical samples must not all be identical")
	}
	return &Empirical{xs: xs}, nil
}

func (d *Empirical) CDF(x float64) float64 {
	n := len(d.xs)
	switch {
	case x <= d.xs[0]:
		return 0
	case x >= d.xs[n-1]:
		return 1
	}
	i := sort.SearchFloat64s(d.xs, x) // d.xs[i-1] < x <= d.xs[i] after adjust
	if d.xs[i] == x {
		return float64(i) / float64(n-1)
	}
	lo, hi := d.xs[i-1], d.xs[i]
	frac := (x - lo) / (hi - lo)
	return (float64(i-1) + frac) / float64(n-1)
}

func (d *Empirical) PDF(x float64) float64 {
	n := len(d.xs)
	if x < d.xs[0] || x > d.xs[n-1] {
		return 0
	}
	i := sort.SearchFloat64s(d.xs, x)
	if i == 0 {
		i = 1
	}
	if i >= n {
		i = n - 1
	}
	lo, hi := d.xs[i-1], d.xs[i]
	if hi == lo {
		// Tied order statistics: spread mass over the surrounding gap.
		return 0
	}
	return 1 / (float64(n-1) * (hi - lo))
}

func (d *Empirical) Mean() float64 {
	var sum float64
	for _, v := range d.xs {
		sum += v
	}
	return sum / float64(len(d.xs))
}

func (d *Empirical) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	n := len(d.xs)
	pos := p * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return d.xs[n-1]
	}
	frac := pos - float64(i)
	return d.xs[i] + frac*(d.xs[i+1]-d.xs[i])
}

func (d *Empirical) Sample(rng *rand.Rand) float64 {
	return d.Quantile(rng.Float64())
}

func (d *Empirical) Support() (float64, float64) { return d.xs[0], d.xs[len(d.xs)-1] }
