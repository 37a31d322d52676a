// Package analytic implements the paper's mathematical model (Leung, Lui &
// Golubchik, ICDE 1997, §3): the expected probability that a viewer
// resuming normal playback after a VCR operation lands inside an existing
// buffer partition ("hit"), so that the I/O stream dedicated to the VCR
// operation can be released.
//
// The model takes the static-partitioning configuration — movie length l,
// total buffer B (in movie-minutes), number of I/O streams n, and the
// playback/FF/RW rates — together with an arbitrary probability
// distribution for the duration of each VCR operation, and produces
// P(hit | FF), P(hit | RW), P(hit | PAU) and their mixture P(hit)
// (paper Eqs. 3–22).
//
// # Formulation
//
// Rather than transcribing the paper's case analysis directly, the package
// evaluates an equivalent unified form. Conditioned on the viewer position
// Vc and the offset u = Vf − Vc ∈ [0, B/n] to the first possible viewer of
// the viewer's own partition, each VCR operation admits a hit exactly when
// its duration x falls in one of a sequence of intervals [a_i(u), b_i(u)]
// — one interval per candidate partition i — clipped by a boundary that
// depends only on Vc (the movie end for FF, position 0 for RW, nothing for
// PAU). Because Vc is uniform on [0, l] and enters only through the clip,
// the Vc integral has the closed form
//
//	∫₀ˡ [F(min(b, c)) − F(min(a, c))] dc
//	   = G(min(b,l)) − G(min(a,l)) − (min(b,l)−min(a,l))·F(a)
//	     + (l − min(b,l))·(F(b)−F(a))      (a < l; 0 otherwise)
//
// where F is the duration CDF and G(x) = ∫₀ˣ F. Equivalently the clipped
// mass of [a, b] is K(b) − K(a) with the clip-averaged CDF
//
//	K(x) = ∫₀ˡ F(min(x, c)) dc = G(x) + (l − x)·F(x)   (x < l),   G(l)   (x ≥ l).
//
// The offset u then enters each interval end linearly: with p = l/n,
// s = B/n and σ = α (FF) or γ (RW), partition i ≥ 1 has ends
// σ(ip + u − s) and σ(ip + u) for FF, σ(ip − u) and σ(ip − u + s) for RW.
// Swapping the partition sum and the u-integral, each partition's
// u-integral is a second difference of M(x) = ∫₀ˣ K:
//
//	∫₀ˢ [K(b_i(u)) − K(a_i(u))] du = [M(σ(ip+s)) − 2M(σip) + M(σ(ip−s))] / σ,
//
//	M(x) = 2H(x) + (l − x)·G(x)   (x ≤ l),   M(l) + (x − l)·G(l)   (x > l),
//
// where H(x) = ∫₀ˣ G (integrate (l − t)·F(t) by parts). Partition 0 has
// its lower end clamped at 0 and contributes M(σs)/σ − s·l·F(0). A pause
// has no clip, so K is replaced by F and M by G: partition i ≥ 1
// contributes G(ip+s) − 2G(ip) + G(ip−s), partition 0 G(s) − s·F(0).
// P(hit | op) is N/(l·B) (FF, RW) or N/B (PAU) times the sum over
// partitions, plus P(end) for FF. The scan stops at the first partition
// whose left end is at or past l (FF/RW) or leaves less than 1e-12 of
// duration mass beyond it; a pause scan folds everything past 2,048
// partitions into one long-run coverage term, (s/p)·(s − G(ip) + G(ip−s)).
//
// Exponential, Gamma of any shape k (with y = x/θ and P_j = P(k+j, y):
// G = x·P₀ − kθ·P₁ and H = ½[x²·P₀ − 2xkθ·P₁ + k(k+1)θ²·P₂]), Uniform
// and Deterministic durations have G and H in closed form, so their hit
// probabilities need no quadrature at all: one evaluation is a few
// incomplete-gamma calls per partition. Other distributions (Weibull,
// lognormal, Pareto, empirical data, mixtures) get G from a precomputed
// grid and integrate each partition's clipped mass over u by adaptive
// Gauss–Legendre, cutting the range where an interval end crosses l or
// an edge of the duration's support. Both paths run in the one partition
// loop behind every Hit method and BreakdownOf, whose terms are the
// loop's per-partition values and whose Total is the unclamped hit
// probability bit for bit.
//
// A distribution's functionals (F, G, and H or the G grid) are cached
// process-wide per (distribution, l) so that a sizing sweep's Models
// share them. The cache is bounded to two generations of 32 entries: a
// server answering never-seen questions keeps at most 64, about 4.7 MB
// even when every one carries an 8,192-point G grid.
//
// The file paperff_test.go carries a literal transcription of the
// paper's FF equations; tests verify the two agree to quadrature
// tolerance.
package analytic

import (
	"errors"
	"fmt"
	"math"
)

// Config describes a static-partitioning configuration for one movie
// (paper §3.1). All durations and buffer sizes are expressed in
// movie-minutes; rates are in any common unit (only ratios matter).
type Config struct {
	// L is the movie length l in minutes.
	L float64
	// B is the total buffer dedicated to the movie's normal playback, in
	// minutes of the movie (net of the per-partition reserve δ; paper
	// writes B = B′ − nδ). Each of the N partitions retains B/N minutes.
	B float64
	// N is the number of I/O streams (= partitions) serving normal
	// playback; the movie restarts every L/N minutes.
	N int
	// RatePB, RateFF, RateRW are the display rates of normal playback,
	// fast-forward and rewind. RateFF and RateRW must exceed... RateFF
	// must exceed RatePB for catch-up to be possible; RateRW must be
	// positive.
	RatePB, RateFF, RateRW float64
}

// Common configuration errors.
var (
	ErrBadConfig = errors.New("analytic: invalid configuration")
)

func cfgErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
}

// Validate checks the configuration invariants: 0 < L, 0 ≤ B ≤ L, N ≥ 1,
// 0 < RatePB < RateFF, 0 < RateRW.
func (c Config) Validate() error {
	switch {
	case !(c.L > 0) || math.IsInf(c.L, 0):
		return cfgErr("movie length L=%v must be positive and finite", c.L)
	case math.IsNaN(c.B) || c.B < 0 || c.B > c.L:
		return cfgErr("buffer B=%v must lie in [0, L=%v]", c.B, c.L)
	case c.N < 1:
		return cfgErr("stream count N=%d must be at least 1", c.N)
	case !(c.RatePB > 0) || math.IsInf(c.RatePB, 0):
		return cfgErr("playback rate %v must be positive and finite", c.RatePB)
	case !(c.RateFF > c.RatePB) || math.IsInf(c.RateFF, 0):
		return cfgErr("fast-forward rate %v must exceed playback rate %v", c.RateFF, c.RatePB)
	case !(c.RateRW > 0) || math.IsInf(c.RateRW, 0):
		return cfgErr("rewind rate %v must be positive and finite", c.RateRW)
	}
	return nil
}

// Wait returns the maximum waiting time w = (L − B)/N experienced by a
// viewer who arrives just after an enrollment window closes (paper Eq. 2).
func (c Config) Wait() float64 {
	return (c.L - c.B) / float64(c.N)
}

// PartitionSize returns the span B/N, in movie-minutes, retained by each
// partition's buffer.
func (c Config) PartitionSize() float64 {
	return c.B / float64(c.N)
}

// RestartInterval returns L/N, the period at which the movie is restarted.
func (c Config) RestartInterval() float64 {
	return c.L / float64(c.N)
}

// Alpha returns the fast-forward catch-up factor
// α = RateFF / (RateFF − RatePB) from paper Eq. (1): a viewer Δ minutes
// behind a target must sweep α·Δ movie-minutes of FF to catch it.
func (c Config) Alpha() float64 {
	return c.RateFF / (c.RateFF - c.RatePB)
}

// GammaRW returns the rewind catch-up factor
// γ = RateRW / (RatePB + RateRW) from paper Eq. (1): a viewer Δ minutes
// ahead of a target must rewind γ·Δ movie-minutes to meet it.
func (c Config) GammaRW() float64 {
	return c.RateRW / (c.RatePB + c.RateRW)
}

// FromWait builds a Config from the quality-of-service pair (w, n): given
// movie length l and a maximum waiting time w, the buffer follows from
// paper Eq. (2) as B = l − n·w. It fails if the pair is infeasible
// (n·w > l, i.e. more streams than pure batching needs).
func FromWait(l, w float64, n int, ratePB, rateFF, rateRW float64) (Config, error) {
	if !(l > 0) {
		return Config{}, cfgErr("movie length %v must be positive", l)
	}
	if !(w >= 0) {
		return Config{}, cfgErr("wait %v must be nonnegative", w)
	}
	b := l - float64(n)*w
	if b < 0 {
		if b > -1e-9*l { // forgive rounding at the pure-batching point
			b = 0
		} else {
			return Config{}, cfgErr("n=%d streams with wait %v exceed pure batching for l=%v", n, w, l)
		}
	}
	c := Config{L: l, B: b, N: n, RatePB: ratePB, RateFF: rateFF, RateRW: rateRW}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// PureBatchingStreams returns l/w, the number of I/O streams a pure
// batching system (B = 0) needs to guarantee maximum wait w (paper §5,
// Example 1 computes 75/0.1 + 60/0.5 + 90/0.25 = 1230). The result is
// rounded up to the next integer.
func PureBatchingStreams(l, w float64) int {
	if !(l > 0) || !(w > 0) {
		return 0
	}
	return int(math.Ceil(l / w))
}

// TypeOneFraction returns the long-run fraction of Poisson arrivals that
// find the enrollment window closed and must queue for the next restart
// (type-1 viewers): the closed phase lasts w of every L/N-minute period,
// so the fraction is w/(L/N) = 1 − B/L.
func (c Config) TypeOneFraction() float64 {
	return 1 - c.B/c.L
}

// MeanWait returns the expected waiting time of an arriving viewer:
// type-2 viewers wait nothing; a type-1 viewer arrives uniformly inside
// the closed phase and waits until the next restart, so
// E[wait] = (1 − B/L) · w/2 (paper C1 concerns the maximum w; this is
// the corresponding average).
func (c Config) MeanWait() float64 {
	return c.TypeOneFraction() * c.Wait() / 2
}
