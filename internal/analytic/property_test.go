package analytic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vodalloc/internal/dist"
	"vodalloc/internal/quad"
)

// These property tests cross-check the production partition scan
// against two independent evaluations of the same integrals, both of
// which sum every partition's clipped mass inside an integral over the
// partition offset u (the "whole-sum" form):
//
//   - the reference: quad.Adaptive at 1e-12, for the closed-form
//     families, whose second-difference terms must match it to 1e-9;
//   - the whole-sum oracle: the model's former production path
//     (adaptive Gauss–Legendre panels over u at uAutoTol), for the
//     grid-fallback families, whose per-partition quadrature must
//     match it to 1e-9.

const (
	adaptiveTol = 1e-12
	propTol     = 1e-9
)

// raceEnabled is set in builds with the race detector (race_test.go).
var raceEnabled bool

// integrator integrates a whole-sum integrand over [0, span].
type integrator func(t *testing.T, f quad.Func, span float64) float64

// refPieces is how many equal pieces the reference splits [0, span]
// into before refining each adaptively. A single adaptive Simpson pass
// starts from five samples, and a narrow duration law (a uniform a
// minute wide) can make the whole-sum integrand equal at all five while
// it dips between them, which ends the refinement at a wrong answer.
const refPieces = 32

// adaptiveRef is the reference integrator: quad.Adaptive over refPieces
// pieces at a total tolerance of adaptiveTol.
func adaptiveRef(t *testing.T, f quad.Func, span float64) float64 {
	t.Helper()
	var sum float64
	for k := 0; k < refPieces; k++ {
		a, b := span*float64(k)/refPieces, span*float64(k+1)/refPieces
		v, err := quad.Adaptive(f, a, b, adaptiveTol/refPieces)
		if err != nil {
			t.Fatalf("reference integral: %v", err)
		}
		sum += v
	}
	return sum
}

// wholeSumOracle returns the former production integrator: composite
// Gauss–Legendre panels doubled from 4 while successive results differ
// by more than uAutoTol, up to 32. It sets *capped when a doubling
// reaches 32 panels unconverged — where a kink of the duration CDF (a
// Pareto's scale point) sits inside the range, and the oracle's own
// error can reach 1e-6.
func wholeSumOracle(capped *bool) integrator {
	return func(t *testing.T, f quad.Func, span float64) float64 {
		prev := quad.GaussPanels(f, 0, span, 4)
		for p := 8; ; p *= 2 {
			cur := quad.GaussPanels(f, 0, span, p)
			if math.Abs(cur-prev) <= uAutoTol {
				return cur
			}
			if p >= 32 {
				*capped = true
				return cur
			}
			prev = cur
		}
	}
}

// ivSpec describes, for one candidate partition index i and offset u,
// the duration interval [a, b] that yields a hit, before clipping — the
// whole-sum form's view of the partitions. ok=false means the interval
// starts at or beyond the movie end and contributes nothing.
type ivSpec struct {
	scale  float64 // α for FF, γ for RW (Eq. 1 catch-up factors)
	period float64 // L/N
	span   float64 // B/N
	l      float64
	rw     bool
}

// at yields the i-th hit interval at offset u.
func (s ivSpec) at(i int, u float64) (a, b float64, ok bool) {
	if s.rw {
		// Landing in the i-th partition behind: rewind
		// x ∈ [γ·(i·L/N − u)⁺, γ·(i·L/N − u + B/N)].
		base := float64(i)*s.period - u
		a = s.scale * base
		if a < 0 {
			a = 0
		}
		if a >= s.l {
			return 0, 0, false
		}
		return a, s.scale * (base + s.span), true
	}
	// Catching the i-th partition ahead: sweep
	// x ∈ [α·(i·L/N + u − B/N)⁺, α·(i·L/N + u)].
	base := float64(i)*s.period + u
	a = s.scale * (base - s.span)
	if a < 0 {
		a = 0
	}
	if a >= s.l {
		return 0, 0, false
	}
	return a, s.scale * base, true
}

// ffIntervals yields the FF hit-interval spec: catching the i-th
// partition ahead (i = 0 is the viewer's own) requires sweeping
// x ∈ [α·(i·L/N + u − B/N)⁺, α·(i·L/N + u)] movie-minutes (Eq. 1 applied
// to Δ_jump_l and Δ_jump_f of §3.1.2); the movie-end clip is applied by
// clippedMass.
func (m *Model) ffIntervals() ivSpec {
	c := m.cfg
	return ivSpec{scale: c.Alpha(), period: c.RestartInterval(), span: c.PartitionSize(), l: c.L}
}

// rwIntervals yields the RW hit-interval spec: landing in the i-th
// partition behind requires rewinding x ∈ [γ·(i·L/N − u)⁺,
// γ·(i·L/N − u + B/N)]; the position-0 clip is applied by clippedMass.
func (m *Model) rwIntervals() ivSpec {
	c := m.cfg
	return ivSpec{scale: c.GammaRW(), period: c.RestartInterval(), span: c.PartitionSize(), l: c.L, rw: true}
}

// refHitFF evaluates HitFF in whole-sum form with the given integrator
// (unclamped).
func refHitFF(t *testing.T, in integrator, m *Model, d dist.Distribution) float64 {
	t.Helper()
	f := newDurFn(d, m.cfg.L)
	end := m.pEnd(f)
	if m.cfg.B == 0 {
		return end
	}
	return refClippedSum(t, in, m, f, m.ffIntervals()) + end
}

// refHitRW evaluates HitRW in whole-sum form (unclamped).
func refHitRW(t *testing.T, in integrator, m *Model, d dist.Distribution) float64 {
	t.Helper()
	if m.cfg.B == 0 {
		return 0
	}
	return refClippedSum(t, in, m, newDurFn(d, m.cfg.L), m.rwIntervals())
}

// refClippedSum evaluates
//
//	N/(L·B) ∫₀^{B/N} Σ_i ∫₀ᴸ [F(min(bᵢ,c)) − F(min(aᵢ,c))] dc du
//
// with the u-integral outermost, stopping each u's partition sum at the
// movie end or where the duration tail falls below pauTailEps.
func refClippedSum(t *testing.T, in integrator, m *Model, f *durFn, iv ivSpec) float64 {
	t.Helper()
	c := m.cfg
	span := c.PartitionSize()
	integrand := func(u float64) float64 {
		var sum float64
		for i := 0; i <= maxPartitionScan; i++ {
			a, b, ok := iv.at(i, u)
			if !ok {
				break
			}
			if 1-f.F(a) < pauTailEps {
				break
			}
			sum += f.clippedMass(a, b)
		}
		return sum
	}
	return float64(c.N) / (c.L * c.B) * in(t, integrand, span)
}

// refHitPAU evaluates HitPAU in whole-sum form (unclamped).
func refHitPAU(t *testing.T, in integrator, m *Model, d dist.Distribution) float64 {
	t.Helper()
	if m.cfg.B == 0 {
		return 0
	}
	f := newDurFn(d, m.cfg.L)
	c := m.cfg
	span := c.PartitionSize()
	period := c.RestartInterval()
	coverage := span / period
	integrand := func(u float64) float64 {
		var sum float64
		for i := 0; ; i++ {
			a := float64(i)*period - u
			b := a + span
			if a < 0 {
				a = 0
			}
			tail := 1 - f.F(a)
			if tail < pauTailEps {
				break
			}
			if i >= pauExactScan {
				sum += tail * coverage
				break
			}
			sum += f.mass(a, b)
		}
		return sum
	}
	return float64(c.N) / c.B * in(t, integrand, span)
}

// randomConfig draws a valid configuration spanning the paper's
// parameter ranges and beyond (short and long movies, thin and thick
// partitions, asymmetric display rates).
func randomConfig(rng *rand.Rand) Config {
	l := 30 + 210*rng.Float64()
	n := 2 + rng.Intn(99)
	b := l * (0.05 + 0.85*rng.Float64())
	return Config{
		L: l, B: b, N: n,
		RatePB: 1,
		RateFF: 1.5 + 3.5*rng.Float64(),
		RateRW: 1.5 + 3.5*rng.Float64(),
	}
}

// randomWideConfig draws a configuration over the whole valid range the
// sizing search visits: B/L log-uniform on [0.01, 1] (down to
// hair-thin partitions, where second differences are most exposed to
// rounding) and n from 1 to 150.
func randomWideConfig(rng *rand.Rand) Config {
	c := randomConfig(rng)
	c.N = 1 + rng.Intn(150)
	c.B = c.L * math.Pow(10, -2*rng.Float64())
	return c
}

// randomClosedDur draws a closed-form family with a mean in the paper's
// single-digit-minutes regime: Gamma with integer and fractional shapes
// from 0.3 to 5, Exponential, and Uniform with and without mass near 0.
func randomClosedDur(rng *rand.Rand) dist.Distribution {
	mean := 2 + 12*rng.Float64()
	switch rng.Intn(5) {
	case 0:
		return dist.MustExponential(mean)
	case 1:
		shape := float64(1 + rng.Intn(5))
		return dist.MustGamma(shape, mean/shape)
	case 2:
		shape := 0.3 + 4.7*rng.Float64()
		return dist.MustGamma(shape, mean/shape)
	case 3:
		return dist.MustUniform(0, 2*mean)
	default:
		lo := mean * rng.Float64()
		return dist.MustUniform(lo, 2*mean-lo)
	}
}

// randomGridDur draws a grid-fallback family: Weibull, lognormal or
// Pareto.
func randomGridDur(rng *rand.Rand) dist.Distribution {
	mean := 2 + 12*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		k := 0.5 + 2.5*rng.Float64()
		w, err := dist.NewWeibull(k, mean/math.Gamma(1+1/k))
		if err != nil {
			panic(err)
		}
		return w
	case 1:
		ln, err := dist.LognormalFromMoments(mean, 0.3+1.7*rng.Float64())
		if err != nil {
			panic(err)
		}
		return ln
	default:
		alpha := 1.5 + 2*rng.Float64()
		return dist.MustPareto(mean*(alpha-1)/alpha, alpha)
	}
}

// checkAgainst compares the production Hit values (before clamping) with
// the whole-sum evaluation by in on cases random configurations. Where
// in sets *capped (its result did not converge) and the two disagree,
// the adaptive reference decides instead: the whole-sum oracle's
// 32-panel cap leaves up to 2e-6 of error at a Pareto's scale point,
// which the production path cuts its ranges at.
func checkAgainst(t *testing.T, in integrator, capped *bool, cases int, seed int64, draw func(*rand.Rand) dist.Distribution) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := []func(*testing.T, integrator, *Model, dist.Distribution) float64{FF: refHitFF, RW: refHitRW, PAU: refHitPAU}
	var worst float64
	var fallbacks int
	for k := 0; k < cases; k++ {
		cfg := randomWideConfig(rng)
		d := draw(rng)
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		label := fmt.Sprintf("case %d cfg %+v dur %T%+v", k, cfg, d, d)
		for _, op := range []Op{FF, RW, PAU} {
			*capped = false
			want := ref[op](t, in, m, d)
			got, err := m.opSum(context.Background(), op, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if *capped && math.Abs(got-want) > propTol {
				fallbacks++
				want = ref[op](t, adaptiveRef, m, d)
			}
			if math.IsNaN(got) || got < -propTol || got > 1+propTol {
				t.Errorf("%s: %v = %v out of range", label, op, got)
				continue
			}
			diff := math.Abs(got - want)
			worst = math.Max(worst, diff)
			if diff > propTol {
				t.Errorf("%s: %v = %.13f, whole-sum %.13f (|Δ|=%.3g)", label, op, got, want, diff)
			}
		}
	}
	t.Logf("worst |Δ| over %d cases × 3 ops: %.3g (%d unconverged whole-sum results replaced by the reference)",
		cases, worst, fallbacks)
}

// TestHitMatchesAdaptiveReference verifies the closed-form
// partition terms against the adaptive whole-sum reference on randomized
// configurations and closed-form families.
func TestHitMatchesAdaptiveReference(t *testing.T) {
	cases := 160
	if testing.Short() || raceEnabled {
		cases = 24
	}
	var never bool
	checkAgainst(t, adaptiveRef, &never, cases, 7, randomClosedDur)
}

// TestQuadraturePathMatchesWholeSumOracle verifies the grid families'
// per-partition quadrature against the former whole-sum path, and
// against the adaptive reference where that path's panel doubling did
// not converge.
func TestQuadraturePathMatchesWholeSumOracle(t *testing.T) {
	cases := 60
	if testing.Short() || raceEnabled {
		cases = 12
	}
	var capped bool
	checkAgainst(t, wholeSumOracle(&capped), &capped, cases, 11, randomGridDur)
}

// TestGaussPanelsMatchesAdaptive pins the cached panel tables directly:
// for assorted smooth integrands and panel counts, the composite rule
// must agree with quad.Adaptive to near machine precision.
func TestGaussPanelsMatchesAdaptive(t *testing.T) {
	integrands := []struct {
		name string
		f    quad.Func
		a, b float64
	}{
		{"exp", math.Exp, 0, 3},
		{"sin", math.Sin, 0, math.Pi},
		{"poly", func(x float64) float64 { return x*x*x - 2*x + 1 }, -1, 2},
		{"gauss", func(x float64) float64 { return math.Exp(-x * x) }, -2, 2},
	}
	for _, tc := range integrands {
		want, err := quad.Adaptive(tc.f, tc.a, tc.b, adaptiveTol)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, panels := range []int{1, 2, 4, 8, 16, 128} {
			got := quad.GaussPanels(tc.f, tc.a, tc.b, panels)
			if diff := math.Abs(got - want); diff > 1e-9 {
				t.Errorf("%s with %d panels: GaussPanels=%.15f Adaptive=%.15f (|Δ|=%.3g)",
					tc.name, panels, got, want, diff)
			}
		}
	}
}
