package analytic

import (
	"context"
	"math"
	"sort"

	"vodalloc/internal/dist"
	"vodalloc/internal/quad"
)

// Model evaluates the paper's hit-probability equations for one
// static-partitioning configuration. The zero value is not usable; build
// with New. Model is immutable after construction and safe for concurrent
// use.
type Model struct {
	cfg Config
}

// New validates cfg and returns a Model for it.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// MustNew is New that panics on invalid configurations; for tests and
// package-level tables.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Op identifies a VCR operation type.
type Op int

// The three interactive operations the paper models (§2).
const (
	FF  Op = iota // fast-forward with viewing
	RW            // rewind with viewing
	PAU           // pause
)

// String returns the conventional abbreviation used in the paper.
func (o Op) String() string {
	switch o {
	case FF:
		return "FF"
	case RW:
		return "RW"
	case PAU:
		return "PAU"
	default:
		return "Op(?)"
	}
}

// HitFF returns P(hit | FF) — paper Eq. (21): the probability that a
// fast-forward of duration drawn from d ends in a hit, either within the
// viewer's own partition (hit_w, Eqs. 3–8), in a partition ahead
// (hit_j^i, Eqs. 9–18), or by running off the end of the movie
// (P(end), Eq. 20). d is the distribution of the movie-time distance
// swept by the FF operation.
func (m *Model) HitFF(d dist.Distribution) float64 {
	v, _ := m.HitFFCtx(context.Background(), d)
	return v
}

// HitRW returns P(hit | RW): the probability that a rewind of duration
// drawn from d (movie-time distance swept backwards) lands inside a
// partition behind the viewer. Rewinding past the start of the movie
// counts as a miss, matching the conservative boundary treatment the
// paper adopts (§4 discusses the resulting slight underestimate).
func (m *Model) HitRW(d dist.Distribution) float64 {
	v, _ := m.HitRWCtx(context.Background(), d)
	return v
}

// HitPAU returns P(hit | PAU): the probability that after a pause of
// wall-clock duration drawn from d some later batch's partition covers
// the viewer's position. Because the movie restarts every L/N minutes
// for ever, the hit set is periodic and pauses longer than L need no
// special handling (the paper's "x mod l" equivalence, §2.1).
func (m *Model) HitPAU(d dist.Distribution) float64 {
	v, _ := m.HitPAUCtx(context.Background(), d)
	return v
}

// pauTailEps ends every partition scan once the duration mass beyond the
// next partition's left end is negligible.
const pauTailEps = 1e-12

// pauExactScan bounds the exact per-partition pause scan; beyond it the
// remaining tail is folded in via the long-run coverage ratio.
const pauExactScan = 2048

// maxPartitionScan caps every per-partition scan. Real configurations
// terminate via the movie-end / duration-tail breaks after at most a few
// thousand iterations (n partitions fit in one movie length); the cap
// only bounds adversarial parameterizations (astronomical n with
// degenerate duration distributions) to a predictable worst case.
const maxPartitionScan = 1 << 16

// uAutoTol is the absolute convergence tolerance of the quadrature path's
// per-partition u-integral. The integrals are probability masses (O(1)
// or smaller), so agreement to 1e-10 between successive panel doublings
// leaves the quadrature error far below the model's own approximation
// error.
const uAutoTol = 1e-10

// uMaxPanels caps the panel doubling of one u-integral.
const uMaxPanels = 32

// pEnd evaluates P(end) = 1 − G(L)/L (paper Eq. 20): the probability a
// fast-forward carries the viewer past the end of the movie, releasing
// the phase-1 resources outright.
func (m *Model) pEnd(f *durFn) float64 {
	p := 1 - f.Gl/m.cfg.L
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// opSum returns the unclamped hit probability of op under duration
// distribution d: the sum of its partition terms in scan order, plus
// P(end) for FF. When bd is non-nil it also records the terms (Within,
// Jumps, End) and their sum (Total, bit-equal to the return value). It
// is the single evaluation behind Hit*, HitMix and BreakdownOf.
func (m *Model) opSum(ctx context.Context, op Op, d dist.Distribution, bd *Breakdown) (float64, error) {
	f := durFnFor(d, m.cfg.L)
	var end float64
	if op == FF {
		end = m.pEnd(f)
	}
	var sum float64
	if m.cfg.B > 0 {
		// Pure batching (B = 0) has zero-width partitions; only the
		// ran-off-the-end release remains.
		var err error
		if sum, err = m.partitions(ctx, op, f, bd); err != nil {
			return 0, err
		}
	} else if err := ctx.Err(); err != nil {
		return 0, err
	}
	if bd != nil {
		bd.Op, bd.End, bd.Total = op, end, sum+end
	}
	return sum + end, nil
}

// partitions sums op's hit mass over the candidate partitions i = 0, 1, …
// (i = 0 is the viewer's own), each term already unconditioned over the
// viewer position and the partition offset u and scaled to a
// probability. With p = L/N, s = B/N and σ = α (FF) or γ (RW), partition
// i ≥ 1 of FF or RW contributes
//
//	N/(L·B) · [M(σ(ip+s)) − 2M(σip) + M(σ(ip−s))] / σ
//
// and partition 0 contributes N/(L·B)·[M(σs)/σ − s·l·F(0)], where M is
// durFn.m; a pause's partition i ≥ 1 contributes
// N/B·[G(ip+s) − 2G(ip) + G(ip−s)] and partition 0 N/B·[G(s) − s·F(0)].
// Distributions without a closed-form H integrate each partition's
// clipped mass over u ∈ [0, s] by quadrature instead. The scan stops
// before a partition whose left end is at or past the movie end (FF/RW:
// every later one is empty) or leaves less than pauTailEps of duration
// mass beyond it; a pause scan folds the tail past pauExactScan
// partitions into one long-run coverage term. Cancellation is checked
// once per partition and, on the quadrature path, once per panel.
func (m *Model) partitions(ctx context.Context, op Op, f *durFn, bd *Breakdown) (float64, error) {
	c := m.cfg
	p, s := c.RestartInterval(), c.PartitionSize()
	sigma, scale := 1.0, float64(c.N)/c.B
	switch op {
	case FF:
		sigma, scale = c.Alpha(), float64(c.N)/(c.L*c.B)
	case RW:
		sigma, scale = c.GammaRW(), float64(c.N)/(c.L*c.B)
	}
	closed := f.GH != nil
	var sum float64
	for i := 0; i <= maxPartitionScan; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		x := float64(i) * p // partition i's restart point, before σ
		lo := math.Max(0, sigma*(x-s))
		if (op != PAU && lo >= c.L) || 1-f.F(lo) < pauTailEps {
			break
		}
		last := op == PAU && i == pauExactScan
		var term float64
		switch {
		case closed && op == PAU && last:
			// ∫₀ˢ (1 − F(ip − u))·(s/p) du: far out in the tail the CDF
			// is nearly constant across one restart period, so the
			// remaining hit mass is the long-run coverage fraction of the
			// remaining tail. This bounds the scan for heavy-tailed
			// pauses whose support stretches over millions of periods.
			term = s / p * (s - f.G(x) + f.G(x-s))
		case closed && op == PAU && i == 0:
			term = f.G(s) - s*f.F(0)
		case closed && op == PAU:
			term = f.G(x+s) - 2*f.G(x) + f.G(x-s)
		case closed && i == 0:
			term = f.m(sigma*s)/sigma - s*c.L*f.F(0)
		case closed:
			term = (f.m(sigma*(x+s)) - 2*f.m(sigma*x) + f.m(sigma*(x-s))) / sigma
		default:
			var err error
			if term, err = m.partitionQuad(ctx, op, f, sigma, i, last); err != nil {
				return 0, err
			}
		}
		v := scale * term
		sum += v
		if bd != nil {
			if i == 0 {
				bd.Within = v
			} else {
				bd.Jumps = append(bd.Jumps, v)
			}
		}
		if last {
			break
		}
	}
	return sum, nil
}

// partitionQuad integrates partition i's hit mass over the offset
// u ∈ [0, B/N] by adaptive Gauss–Legendre: the path for distributions
// whose H has no closed form. tail selects the pause scan's long-run
// coverage term. The integrand is smooth except where an end of the hit
// interval crosses the movie end (FF/RW) or an edge of the duration's
// support (Pareto's scale, a truncation bound); the range is cut there so
// every piece is smooth.
func (m *Model) partitionQuad(ctx context.Context, op Op, f *durFn, sigma float64, i int, tail bool) (float64, error) {
	c := m.cfg
	p, s := c.RestartInterval(), c.PartitionSize()
	// At offset u the hit interval is σ·[e + dir·u, e + s + dir·u]: the
	// FF interval ahead moves up with u (dir = 1, e = ip − s), the RW and
	// pause intervals behind move down (dir = −1, e = ip).
	dir, e := -1.0, float64(i)*p
	if op == FF {
		dir, e = 1, e-s
	}
	var integrand func(u float64) float64
	switch {
	case op != PAU:
		integrand = func(u float64) float64 {
			a := sigma * (e + dir*u)
			return f.clippedMass(a, a+sigma*s)
		}
	case tail:
		integrand = func(u float64) float64 { return (1 - f.F(e-u)) * s / p }
	default:
		integrand = func(u float64) float64 { return f.mass(e-u, e-u+s) }
	}
	kinks := []float64{f.lo, f.hi, c.L}
	if op == PAU {
		kinks = kinks[:2] // pauses have no movie-end clip
	}
	cuts := []float64{0, s}
	for _, z := range kinks {
		for _, end := range [...]float64{e, e + s} {
			if u := dir * (z/sigma - end); u > 0 && u < s {
				cuts = append(cuts, u)
			}
		}
	}
	sort.Float64s(cuts)
	var sum float64
	for k := 1; k < len(cuts); k++ {
		v, err := quad.AutoPanelsCtx(ctx, integrand, cuts[k-1], cuts[k], uAutoTol, uMaxPanels)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// Hit returns the op-specific hit probability.
func (m *Model) Hit(op Op, d dist.Distribution) float64 {
	v, _ := m.HitCtx(context.Background(), op, d)
	return v
}

// Mix describes the VCR workload mix of paper Eq. (22): the probability
// that an interactive request is of each type, with a duration
// distribution per type. Distributions for zero-probability operations
// may be nil.
type Mix struct {
	PFF, PRW, PPAU float64
	FF, RW, PAU    dist.Distribution
}

// Validate checks that the probabilities are nonnegative, sum to 1
// (within 1e-9), and that every positive-probability operation carries a
// distribution.
func (x Mix) Validate() error {
	for _, p := range []float64{x.PFF, x.PRW, x.PPAU} {
		if p < 0 || math.IsNaN(p) {
			return cfgErr("mix probability %v must be nonnegative", p)
		}
	}
	if s := x.PFF + x.PRW + x.PPAU; math.Abs(s-1) > 1e-9 {
		return cfgErr("mix probabilities sum to %v, want 1", s)
	}
	if x.PFF > 0 && x.FF == nil {
		return cfgErr("mix has PFF=%v but no FF distribution", x.PFF)
	}
	if x.PRW > 0 && x.RW == nil {
		return cfgErr("mix has PRW=%v but no RW distribution", x.PRW)
	}
	if x.PPAU > 0 && x.PAU == nil {
		return cfgErr("mix has PPAU=%v but no PAU distribution", x.PPAU)
	}
	return nil
}

// Combine weighs per-operation hit probabilities by the mix (paper
// Eq. 22): P(hit) = P(hit|FF)·P_FF + P(hit|RW)·P_RW + P(hit|PAU)·P_PAU,
// skipping zero-probability operations (their arguments are ignored) and
// clamping the sum to [0, 1]. HitMix is Combine over the model's three
// values; a caller that already holds them combines without
// re-evaluating.
func (x Mix) Combine(ff, rw, pau float64) float64 {
	var p float64
	if x.PFF > 0 {
		p += x.PFF * ff
	}
	if x.PRW > 0 {
		p += x.PRW * rw
	}
	if x.PPAU > 0 {
		p += x.PPAU * pau
	}
	return clampProb(p)
}

// HitMix returns the expected hit probability of paper Eq. (22):
// P(hit) = P(hit|FF)·P_FF + P(hit|RW)·P_RW + P(hit|PAU)·P_PAU.
func (m *Model) HitMix(x Mix) (float64, error) {
	return m.HitMixCtx(context.Background(), x)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Breakdown decomposes a hit probability into the paper's terms: the
// within-partition component (hit_w), per-partition jump components
// (hit_j^i for i = 1, 2, … in scan order, zero where a partition's hit
// interval holds no duration mass), and for FF the ran-off-the-end
// component P(end). Total is their sum.
type Breakdown struct {
	Op     Op
	Within float64
	Jumps  []float64
	End    float64
	Total  float64
}

// BreakdownOf computes the per-term decomposition of Hit(op, d). It runs
// the same partition scan as Hit, so Total equals the unclamped hit
// probability bit for bit; Hit(op, d) is Total clamped to [0, 1].
func (m *Model) BreakdownOf(op Op, d dist.Distribution) Breakdown {
	var bd Breakdown
	_, _ = m.opSum(context.Background(), op, d, &bd) // Background never cancels
	return bd
}
