package sizing

import (
	"fmt"
	"math"

	"vodalloc/internal/analytic"
	"vodalloc/internal/quad"
	"vodalloc/internal/vcr"
)

// This file answers the paper's motivating resource question directly:
// §5 argues that a high hit probability means "less resources need to be
// reserved" for VCR service, because dedicated streams flow back to the
// pool at resume time instead of being held to the end of the movie.
// EstimateDedicated turns that argument into numbers — a Little's-law
// estimate of the steady-state dedicated-stream occupancy — so an
// operator can size the reserved pool, and the simulator validates it.
//
// Model. A viewer alternates think periods of mean E[T] with VCR
// operations. Per operation the expected wall time on a dedicated stream
// is w̄₁ = P_FF·E[X_FF]·R_PB/R_FF + P_RW·E[X_RW]·R_PB/R_RW (a pause
// holds no stream). After an operation that misses (probability
// 1 − P(hit)) the viewer keeps the stream through his next think period
// — truncated by the end of the movie. With ops arriving at total rate
// Λ = λ·l/g (g = net movie progress per cycle), Little's law gives
//
//	E[dedicated] = Λ·( w̄₁ + (1 − P(hit))·E[min(T, R)] )
//
// where R is the remaining movie time at a random miss (≈ uniform on
// [0, l]). The estimate ignores position/offset correlations and
// end-of-movie op thinning; validation puts it within ~20% of measured
// occupancy on the paper's configurations.

// DedicatedEstimate is the predicted dedicated-stream demand.
type DedicatedEstimate struct {
	// Hit is the model hit probability used.
	Hit float64
	// OpsPerMinute is the system-wide VCR operation rate Λ.
	OpsPerMinute float64
	// Phase1 is the occupancy from FF/RW display (streams).
	Phase1 float64
	// MissHold is the occupancy from post-miss dedicated playback.
	MissHold float64
	// Total is the expected concurrent dedicated streams.
	Total float64
}

// ReserveFor returns a stream reservation covering the given quantile of
// the occupancy distribution, using the M/G/∞ normal approximation
// (occupancy ≈ Poisson(Total)): Total + z·√Total, rounded up.
func (e DedicatedEstimate) ReserveFor(z float64) int {
	if e.Total <= 0 {
		return 0
	}
	return int(math.Ceil(e.Total + z*math.Sqrt(e.Total)))
}

// EstimateDedicated predicts the steady-state dedicated-stream occupancy
// for one movie under Poisson arrivals at rate λ.
func EstimateDedicated(cfg analytic.Config, profile vcr.Profile, lambda float64) (DedicatedEstimate, error) {
	if err := cfg.Validate(); err != nil {
		return DedicatedEstimate{}, err
	}
	if !(lambda > 0) {
		return DedicatedEstimate{}, fmt.Errorf("%w: arrival rate %v", ErrBadParam, lambda)
	}
	if !profile.Interactive() {
		return DedicatedEstimate{}, nil // no VCR requests, no dedicated streams
	}
	if err := profile.Validate(); err != nil {
		return DedicatedEstimate{}, fmt.Errorf("%w: %v", ErrBadParam, err)
	}

	model, err := analytic.New(cfg)
	if err != nil {
		return DedicatedEstimate{}, err
	}
	hit, err := model.HitMix(MixFromProfile(profile))
	if err != nil {
		return DedicatedEstimate{}, err
	}

	meanT := profile.Think.Mean()
	var meanFF, meanRW float64
	if profile.PFF > 0 {
		meanFF = profile.DurFF.Mean()
	}
	if profile.PRW > 0 {
		meanRW = profile.DurRW.Mean()
	}
	// Net movie progress per think+op cycle: think advances the viewer,
	// FF jumps him forward, RW back, PAU neither.
	g := meanT + profile.PFF*meanFF - profile.PRW*meanRW
	if !(g > 0) {
		return DedicatedEstimate{}, fmt.Errorf("%w: viewers make no net progress (g=%v)", ErrBadParam, g)
	}
	opsRate := lambda * cfg.L / g

	// Phase-1 stream time per op.
	w1 := profile.PFF*meanFF*cfg.RatePB/cfg.RateFF + profile.PRW*meanRW*cfg.RatePB/cfg.RateRW

	// Post-miss hold: one think period truncated by the remaining movie,
	// E[min(T, R)] with R ~ U[0, l]:
	// (1/l)∫₀ˡ ∫₀ʳ (1 − F_T(t)) dt dr, evaluated numerically.
	FT := profile.Think.CDF
	survival := func(t float64) float64 { return 1 - FT(t) } // hoisted: one closure, not one per outer node
	inner := func(r float64) float64 {
		return quad.GaussPanels(survival, 0, r, 4)
	}
	holdPerMiss := quad.GaussPanels(inner, 0, cfg.L, 8) / cfg.L

	est := DedicatedEstimate{
		Hit:          hit,
		OpsPerMinute: opsRate,
		Phase1:       opsRate * w1,
		MissHold:     opsRate * (1 - hit) * holdPerMiss,
	}
	est.Total = est.Phase1 + est.MissHold
	return est, nil
}
