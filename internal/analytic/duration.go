package analytic

import (
	"math"
	"reflect"
	"sync"

	"vodalloc/internal/dist"
)

// durFn bundles the functionals of a VCR-duration distribution that the
// model needs: the CDF F, its running integral G(x) = ∫₀ˣ F(t) dt and,
// for the families where it has a closed form, H(x) = ∫₀ˣ G(t) dt.
// G appears when the uniform viewer-position integral is evaluated in
// closed form, H when the partition-offset integral is too (see the
// package comment). Exponential, Gamma (any shape), Uniform and
// Deterministic durations on [0, ∞) carry both in closed form; any other
// distribution falls back to a dense precomputed grid for G (G is C¹, so
// linear interpolation of a fine grid is accurate to O(h²)) and has no H,
// which sends the model down the quadrature path.
type durFn struct {
	F func(x float64) float64
	G func(x float64) float64
	// GH evaluates G and H at one point; nil for the grid families.
	GH func(x float64) (g, h float64)
	// Gl and Ml cache G(l) and M(l) = 2·H(l) for the construction-time
	// movie length l (Ml only when GH is set): the movie-end clip needs
	// them on every partition that straddles l.
	Gl, Ml float64
	l      float64
	// lo and hi bound the distribution's support; the quadrature path
	// cuts its ranges where an interval end crosses one.
	lo, hi float64
}

// m returns M(x) = ∫₀ˣ K, where K(x) = ∫₀ˡ F(min(x, c)) dc is the
// clip-averaged CDF: K = G(x) + (l − x)·F(x) below l and G(l) from l on,
// so M = 2H(x) + (l − x)·G(x) up to l and M(l) + (x − l)·G(l) beyond.
// Only for the closed-form families (GH set).
func (f *durFn) m(x float64) float64 {
	if x >= f.l {
		return f.Ml + (x-f.l)*f.Gl
	}
	g, h := f.GH(x)
	return 2*h + (f.l-x)*g
}

// gridPoints is the resolution of the generic G fallback grid over [0, l].
const gridPoints = 8192

// newDurFn builds the functionals of d for movie length l, specializing
// the families with closed-form G and H. The grid fallback only ever
// needs G on [0, l]: the quadrature path clamps every G argument to the
// movie length before use.
func newDurFn(d dist.Distribution, l float64) *durFn {
	f := &durFn{F: d.CDF, GH: closedGH(d), l: l}
	f.lo, f.hi = d.Support()
	if f.GH != nil {
		gh := f.GH
		f.G = func(x float64) float64 {
			g, _ := gh(x)
			return g
		}
		var hl float64
		f.Gl, hl = gh(l)
		f.Ml = 2 * hl
		return f
	}
	f.G = gridG(d, l)
	f.Gl = f.G(l)
	return f
}

// closedGH returns the closed-form (G, H) evaluator of d, or nil when d's
// family has none. Every evaluator returns (0, 0) for x ≤ 0. Families
// whose support reaches below 0 are left to the grid: their closed forms
// would be anchored at the support's start, not at 0.
func closedGH(d dist.Distribution) func(float64) (float64, float64) {
	switch t := d.(type) {
	case dist.Exponential:
		m := t.Mean()
		return func(x float64) (float64, float64) {
			if x <= 0 {
				return 0, 0
			}
			// G = x − m(1 − e^{−x/m}); H = x²/2 − m·G.
			g := x + m*math.Expm1(-x/m)
			return g, 0.5*x*x - m*g
		}
	case dist.Gamma:
		k, th := t.Shape(), t.Scale()
		up2 := dist.MustGamma(k+2, th)
		lgk1, _ := math.Lgamma(k + 1)
		return func(x float64) (float64, float64) {
			if x <= 0 {
				return 0, 0
			}
			// With y = x/θ and P_j = P(k+j, y): G = x·P₀ − kθ·P₁ and
			// H = ½[x²·P₀ − 2xkθ·P₁ + k(k+1)θ²·P₂] (E[(x−X)⁺] and
			// E[((x−X)⁺)²]/2). One incomplete-gamma call gives P₂; the
			// recurrence P(a, y) = P(a+1, y) + yᵃe⁻ʸ/Γ(a+1) steps down
			// to P₁ and P₀ adding positive terms only.
			y := x / th
			p2 := up2.CDF(x)
			d0 := math.Exp(k*math.Log(y) - y - lgk1)
			p1 := p2 + d0*y/(k+1)
			p0 := p1 + d0
			kt := k * th
			return x*p0 - kt*p1, 0.5 * (x*x*p0 - 2*x*kt*p1 + kt*(k+1)*th*p2)
		}
	case dist.Uniform:
		lo, hi := t.Support()
		if lo < 0 {
			return nil
		}
		w, mid := hi-lo, 0.5*(lo+hi)
		return func(x float64) (float64, float64) {
			switch {
			case x <= lo:
				return 0, 0
			case x >= hi:
				c := x - mid
				return c, 0.5*c*c + w*w/24
			default:
				c := x - lo
				return c * c / (2 * w), c * c * c / (6 * w)
			}
		}
	case dist.Deterministic:
		v := t.Mean()
		if v < 0 {
			return nil
		}
		return func(x float64) (float64, float64) {
			if x <= v {
				return 0, 0
			}
			c := x - v
			return c, 0.5 * c * c
		}
	}
	return nil
}

// gridG precomputes G(x) = ∫₀ˣ F on [0, l] by cumulative trapezoid over a
// uniform grid and returns a linear interpolant. Beyond l it extends with
// the trapezoid of the actual CDF from the last grid point (G' = F ≤ 1),
// though the model never asks for x > l.
func gridG(d dist.Distribution, l float64) func(float64) float64 {
	if !(l > 0) {
		return func(float64) float64 { return 0 }
	}
	h := l / gridPoints
	cum := make([]float64, gridPoints+1)
	prev := d.CDF(0)
	for i := 1; i <= gridPoints; i++ {
		cur := d.CDF(float64(i) * h)
		cum[i] = cum[i-1] + 0.5*(prev+cur)*h
		prev = cur
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		if x >= l {
			return cum[gridPoints] + 0.5*(d.CDF(l)+d.CDF(x))*(x-l)
		}
		pos := x / h
		i := int(pos)
		if i >= gridPoints {
			i = gridPoints - 1
		}
		frac := pos - float64(i)
		return cum[i] + frac*(cum[i+1]-cum[i])
	}
}

// clippedMass computes ∫₀ˡ [F(min(b,c)) − F(min(a,c))] dc for 0 ≤ a ≤ b
// and the construction-time movie length l: the closed-form
// unconditioning of a hit interval [a, b] over a uniform clip boundary
// c ~ U[0, l] (times l), i.e. K(b) − K(a). This single function realizes
// the paper's case (a)/(b) split (complete vs. partial hits, Eqs. 4–18):
// the clip c plays the role of the catch-up horizon.
func (f *durFn) clippedMass(a, b float64) float64 {
	l := f.l
	if a < 0 {
		a = 0
	}
	if b <= a || a >= l {
		return 0
	}
	fa, ga := f.F(a), f.G(a)
	if b >= l {
		// ∫_a^l (F(c) − F(a)) dc
		return f.Gl - ga - (l-a)*fa
	}
	// ∫_a^b (F(c) − F(a)) dc + (l − b)(F(b) − F(a))
	fb := f.F(b)
	return f.G(b) - ga - (b-a)*fa + (l-b)*(fb-fa)
}

// mass returns the unclipped probability F(b) − F(a) of the interval,
// clamped to [0, 1].
func (f *durFn) mass(a, b float64) float64 {
	if a < 0 {
		a = 0
	}
	if b <= a {
		return 0
	}
	p := f.F(b) - f.F(a)
	if p < 0 {
		return 0
	}
	return p
}

// durCacheGen bounds one generation of the process-wide durFn cache.
// The cache keeps two generations, so it holds at most 2·durCacheGen
// entries — about 4.7 MB when every one is a grid family (8,192-point
// G table each) — however many distinct distributions a long-lived
// server is asked about.
const durCacheGen = 32

// durKey keys the durFn cache. The functionals depend only on the
// distribution value and the movie length, so they are shareable across
// Model instances.
type durKey struct {
	d dist.Distribution
	l float64
}

// durCache shares built durFns across Models: a sizing sweep constructs
// one Model per (B, n) candidate but evaluates the same handful of
// duration distributions at the same L throughout, and the grid-fallback
// families are expensive to rebuild per point. Two generations give
// LRU-like retention at map cost: a lookup that hits the old generation
// promotes the entry, and a full current generation retires the old one.
var durCache struct {
	sync.Mutex
	cur, old map[durKey]*durFn
}

// durFnFor returns the functionals of d at movie length l, building and
// caching them on first use. Distributions whose dynamic type is not
// comparable (mixtures, empirical data) bypass the cache — the map would
// panic on them — and rebuild per call.
func durFnFor(d dist.Distribution, l float64) *durFn {
	if !reflect.TypeOf(d).Comparable() {
		return newDurFn(d, l)
	}
	k := durKey{d: d, l: l}
	durCache.Lock()
	f, ok := durCache.cur[k]
	if !ok {
		if f, ok = durCache.old[k]; ok {
			durCachePutLocked(k, f)
		}
	}
	durCache.Unlock()
	if ok {
		return f
	}
	// Build outside the lock: a grid G costs thousands of CDF calls, and
	// two goroutines racing on one key build equal values.
	f = newDurFn(d, l)
	durCache.Lock()
	durCachePutLocked(k, f)
	durCache.Unlock()
	return f
}

// durCachePutLocked stores f under k, retiring the old generation when
// the current one is full. The caller holds durCache's lock.
func durCachePutLocked(k durKey, f *durFn) {
	if len(durCache.cur) >= durCacheGen {
		durCache.old, durCache.cur = durCache.cur, nil
	}
	if durCache.cur == nil {
		durCache.cur = make(map[durKey]*durFn, durCacheGen)
	}
	durCache.cur[k] = f
}
